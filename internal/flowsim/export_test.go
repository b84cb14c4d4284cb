package flowsim

// RefSimulate exposes the full-refill oracle to the external test package,
// which can import the engine packages that import flowsim.
var RefSimulate = refSimulate
