package commplan

// CheckRounds exposes the ready-queue oracle comparison to the external
// test package, which can import the engine packages that import commplan.
var CheckRounds = checkRounds
