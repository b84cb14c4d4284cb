package moe

import (
	"math"
	"math/rand"

	"mixnet/internal/metrics"
)

// GateConfig tunes the synthetic gate dynamics. The defaults reproduce the
// three production observations of §3:
//
//  1. temporal variability of expert loads that decays as training
//     progresses (load-balancing loss) but never vanishes,
//  2. persistent spatial sparsity of the all-to-all matrices, and
//  3. layer-to-layer structure (a slowly varying conditional routing
//     pattern) that makes the first forward all-to-all partially
//     predictable (§B.1).
type GateConfig struct {
	Seed      int64
	InitStd   float64 // initial expert-logit spread (higher = more skewed)
	Balance   float64 // per-iteration pull toward uniform (load-balancing loss)
	NoiseStd  float64 // per-iteration logit noise (keeps variability alive)
	TransStd  float64 // spread of the layer-transition logits (sparsity)
	RankSkew  float64 // rank-specific dispatch noise (spatial non-uniformity)
	DropRate  float64 // probability a rank ignores a given expert entirely
	TokensVar float64 // relative variation of per-iteration token counts
}

// DefaultGateConfig returns the calibrated defaults.
func DefaultGateConfig(seed int64) GateConfig {
	return GateConfig{
		Seed:      seed,
		InitStd:   2.0,
		Balance:   0.0015,
		NoiseStd:  0.02,
		TransStd:  1.5,
		RankSkew:  0.8,
		DropRate:  0.15,
		TokensVar: 0.05,
	}
}

// LayerDispatch is the gate outcome for one MoE block in one iteration.
type LayerDispatch struct {
	// Loads is the fraction of token dispatches received by each expert
	// (length Model.Experts, sums to 1).
	Loads []float64
	// RankMatrix[i][j] is the number of bytes EP rank i sends to EP rank j
	// in the first (dispatch) all-to-all. The combine all-to-all is its
	// transpose; the backward pair mirrors both (§5.1).
	RankMatrix *metrics.Matrix
}

// Iteration is the gate outcome for all MoE blocks in one training step.
type Iteration struct {
	Index  int
	Layers []LayerDispatch
}

// GateSim generates gate outcomes iteration by iteration.
type GateSim struct {
	Model Model
	Plan  TrainPlan
	Cfg   GateConfig

	rng    *rand.Rand
	iter   int
	logits []float64         // layer-0 latent expert affinities
	trans  []*metrics.Matrix // per layer boundary: Experts x Experts column-stochastic
	masks  [][][]bool        // per layer, per rank: expert dropped?
	q      []float64         // scratch: one rank's dispatch shares (rankMatrix)
}

// NewGateSim builds a simulator for (m, p). It panics if the pairing is
// invalid; call Validate first for error handling.
func NewGateSim(m Model, p TrainPlan, cfg GateConfig) *GateSim {
	if err := Validate(m, p); err != nil {
		panic(err)
	}
	g := &GateSim{Model: m, Plan: p, Cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	g.logits = make([]float64, m.Experts)
	for i := range g.logits {
		g.logits[i] = g.rng.NormFloat64() * cfg.InitStd
	}
	// Fixed ground-truth layer transitions: column e is the routing
	// distribution of tokens leaving expert e of layer l into layer l+1.
	g.trans = make([]*metrics.Matrix, m.Blocks-1)
	z := make([]float64, m.Experts)
	for l := range g.trans {
		t := metrics.NewMatrix(m.Experts, m.Experts)
		for col := 0; col < m.Experts; col++ {
			for row := range z {
				z[row] = g.rng.NormFloat64() * cfg.TransStd
			}
			for row, v := range softmax(z, z) {
				t.Set(row, col, v)
			}
		}
		g.trans[l] = t
	}
	// Per-(layer, rank) expert drop masks: persistent spatial sparsity.
	g.masks = make([][][]bool, m.Blocks)
	rows := make([][]bool, m.Blocks*p.EP)
	cells := make([]bool, m.Blocks*p.EP*m.Experts)
	for l := range g.masks {
		g.masks[l], rows = rows[:p.EP:p.EP], rows[p.EP:]
		for r := range g.masks[l] {
			mask := cells[:m.Experts:m.Experts]
			cells = cells[m.Experts:]
			for e := range mask {
				// Never drop the experts hosted locally by this rank.
				local := e/m.ExpertsPerRank(p) == r
				mask[e] = !local && g.rng.Float64() < cfg.DropRate
			}
			g.masks[l][r] = mask
		}
	}
	g.q = make([]float64, m.Experts)
	return g
}

// TrueTransition exposes the ground-truth transition matrix between layer l
// and l+1, used to upper-bound predictor accuracy in tests.
func (g *GateSim) TrueTransition(l int) *metrics.Matrix { return g.trans[l] }

// softmax writes the softmax of z into out, which may be z, and returns out.
func softmax(out, z []float64) []float64 {
	max := math.Inf(-1)
	for _, v := range z {
		if v > max {
			max = v
		}
	}
	var sum float64
	for i, v := range z {
		out[i] = math.Exp(v - max)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// Next advances one training iteration and returns the gate outcome.
func (g *GateSim) Next() *Iteration {
	m, p, cfg := g.Model, g.Plan, g.Cfg
	// Evolve layer-0 affinities: decay toward uniform plus noise.
	for i := range g.logits {
		g.logits[i] = (1-cfg.Balance)*g.logits[i] + cfg.NoiseStd*g.rng.NormFloat64()
	}
	it := &Iteration{Index: g.iter, Layers: make([]LayerDispatch, m.Blocks)}

	// Per-iteration token volume jitter.
	tokens := float64(p.TokensPerMicroBatch()) * (1 + cfg.TokensVar*g.rng.NormFloat64())
	if tokens < 1 {
		tokens = 1
	}
	dispatchBytes := tokens * float64(m.TopK) * m.TokenBytes()

	// Each layer's loads are a fresh slice the returned iteration owns;
	// the next layer only reads them.
	prev := softmax(make([]float64, m.Experts), g.logits)
	for l := 0; l < m.Blocks; l++ {
		if l > 0 {
			// loads_l = P_{l-1} * loads_{l-1}, renormalised with noise.
			t := g.trans[l-1]
			next := make([]float64, m.Experts)
			for row := 0; row < m.Experts; row++ {
				var s float64
				for col := 0; col < m.Experts; col++ {
					s += t.At(row, col) * prev[col]
				}
				next[row] = s * math.Exp(0.1*g.rng.NormFloat64())
			}
			prev = metrics.NormalizeInPlace(next)
		}
		it.Layers[l] = LayerDispatch{
			Loads:      prev,
			RankMatrix: g.rankMatrix(l, prev, dispatchBytes),
		}
	}
	g.iter++
	return it
}

// rankMatrix builds the EP-rank dispatch matrix from expert loads with
// rank-specific skew and drop masks.
func (g *GateSim) rankMatrix(layer int, loads []float64, dispatchBytes float64) *metrics.Matrix {
	m, p, cfg := g.Model, g.Plan, g.Cfg
	per := m.ExpertsPerRank(p)
	out := metrics.NewMatrix(p.EP, p.EP)
	q := g.q
	for i := 0; i < p.EP; i++ {
		mask := g.masks[layer][i]
		for e := 0; e < m.Experts; e++ {
			if mask[e] {
				q[e] = 0
				continue
			}
			q[e] = loads[e] * math.Exp(cfg.RankSkew*g.rng.NormFloat64())
		}
		for e, v := range metrics.NormalizeInPlace(q) {
			j := e / per
			if j >= p.EP {
				j = p.EP - 1
			}
			out.Add(i, j, v*dispatchBytes)
		}
	}
	return out
}

// ExpertReceiveVolume returns, for plotting Figure 4a, the per-expert bytes
// received in one layer's dispatch all-to-all.
func ExpertReceiveVolume(d LayerDispatch, m Model, p TrainPlan) []float64 {
	per := m.ExpertsPerRank(p)
	rankRecv := d.RankMatrix.ColSums()
	out := make([]float64, m.Experts)
	for e := 0; e < m.Experts; e++ {
		r := e / per
		if r >= len(rankRecv) {
			r = len(rankRecv) - 1
		}
		// Split the rank's receive volume across its local experts by load.
		var localLoad float64
		for le := r * per; le < (r+1)*per && le < m.Experts; le++ {
			localLoad += d.Loads[le]
		}
		if localLoad > 0 {
			out[e] = rankRecv[r] * d.Loads[e] / localLoad
		}
	}
	return out
}
