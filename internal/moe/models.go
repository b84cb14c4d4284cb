// Package moe models Mixture-of-Experts workloads: the architecture
// parameters of the evaluated models (Table 1, §D.1), a synthetic gate /
// token-dispatch simulator reproducing the measured all-to-all dynamics of
// §3 (temporal variability that decays with training, persistent spatial
// sparsity, regional locality), and traffic-matrix construction.
package moe

import "fmt"

// Model captures the architecture parameters of an MoE LLM that determine
// computation and communication volumes.
type Model struct {
	Name      string
	Blocks    int // number of MoE blocks (layers)
	Hidden    int // model (residual) dimension
	FFN       int // per-expert intermediate dimension
	Experts   int // experts per MoE block
	TopK      int // activated experts per token
	Heads     int
	ParamsB   float64 // total parameters, billions (drives DP gradient size)
	BytesElem int     // bytes per activation element (2 = bf16)
}

// TrainPlan is a parallelisation strategy (Table 1 / §D.1).
type TrainPlan struct {
	EP, TP, PP, DP int
	SeqLen         int
	MicroBatch     int // sequences per micro-batch
	NumMicroBatch  int // micro-batches per iteration (pipeline depth fill)
}

// GPUs returns the number of GPUs one model replica occupies times DP.
func (p TrainPlan) GPUs() int { return p.EP * p.TP * p.PP * p.DP }

// TokensPerMicroBatch returns tokens processed per micro-batch per EP rank.
func (p TrainPlan) TokensPerMicroBatch() int { return p.SeqLen * p.MicroBatch }

// Registry of the evaluated models. Architecture numbers follow the public
// model cards cited in the paper.
var (
	Mixtral8x7B = Model{
		Name: "Mixtral 8x7B", Blocks: 32, Hidden: 4096, FFN: 14336,
		Experts: 8, TopK: 2, Heads: 32, ParamsB: 46.7, BytesElem: 2,
	}
	Mixtral8x22B = Model{
		Name: "Mixtral 8x22B", Blocks: 56, Hidden: 6144, FFN: 16384,
		Experts: 8, TopK: 2, Heads: 48, ParamsB: 141, BytesElem: 2,
	}
	LLaMAMoE = Model{
		Name: "LLaMA-MoE", Blocks: 32, Hidden: 4096, FFN: 688, // 11008/16
		Experts: 16, TopK: 4, Heads: 32, ParamsB: 6.7, BytesElem: 2,
	}
	QwenMoE = Model{
		Name: "Qwen-MoE", Blocks: 24, Hidden: 2048, FFN: 1408,
		Experts: 64, TopK: 4, Heads: 16, ParamsB: 14.3, BytesElem: 2,
	}
	DeepSeekR1 = Model{
		Name: "DeepSeek-R1", Blocks: 61, Hidden: 7168, FFN: 2048,
		Experts: 256, TopK: 8, Heads: 128, ParamsB: 671, BytesElem: 2,
	}
	DeepSeekV3 = Model{
		Name: "DeepSeek-V3", Blocks: 61, Hidden: 7168, FFN: 2048,
		Experts: 256, TopK: 8, Heads: 128, ParamsB: 671, BytesElem: 2,
	}
)

// Table1Plans returns the training configurations of Table 1.
func Table1Plans() map[string]TrainPlan {
	return map[string]TrainPlan{
		Mixtral8x7B.Name: {EP: 8, TP: 4, PP: 4, DP: 1, SeqLen: 4096, MicroBatch: 8, NumMicroBatch: 8},
		LLaMAMoE.Name:    {EP: 16, TP: 1, PP: 4, DP: 1, SeqLen: 4096, MicroBatch: 8, NumMicroBatch: 8},
		QwenMoE.Name:     {EP: 16, TP: 1, PP: 4, DP: 1, SeqLen: 4096, MicroBatch: 8, NumMicroBatch: 8},
	}
}

// SimPlans returns the large-scale simulation configurations (§7.1, §D.1)
// for the 1024-GPU cluster experiments.
func SimPlans() map[string]TrainPlan {
	return map[string]TrainPlan{
		Mixtral8x22B.Name: {EP: 8, TP: 8, PP: 8, DP: 2, SeqLen: 4096, MicroBatch: 8, NumMicroBatch: 16},
		Mixtral8x7B.Name:  {EP: 8, TP: 4, PP: 4, DP: 8, SeqLen: 4096, MicroBatch: 8, NumMicroBatch: 8},
		QwenMoE.Name:      {EP: 32, TP: 1, PP: 4, DP: 8, SeqLen: 4096, MicroBatch: 8, NumMicroBatch: 8},
		DeepSeekR1.Name:   {EP: 64, TP: 1, PP: 16, DP: 1, SeqLen: 4096, MicroBatch: 8, NumMicroBatch: 32},
	}
}

// PlanFor resolves a registry model and its training plan by name, with dp
// replicas applied (dp == 0 keeps the plan's own DP; a negative dp is an
// error). The simulation plan takes precedence over the Table 1 plan,
// matching the scenario runner's resolution order, so every entry point
// sizes a named model identically.
func PlanFor(name string, dp int) (Model, TrainPlan, error) {
	m, ok := Models()[name]
	if !ok {
		return Model{}, TrainPlan{}, fmt.Errorf("moe: unknown model %q", name)
	}
	plan, ok := SimPlans()[name]
	if !ok {
		plan, ok = Table1Plans()[name]
	}
	if !ok {
		return Model{}, TrainPlan{}, fmt.Errorf("moe: model %q has no training plan", name)
	}
	if dp < 0 {
		return Model{}, TrainPlan{}, fmt.Errorf("moe: data parallelism %d", dp)
	}
	if dp > 0 {
		plan.DP = dp
	}
	return m, plan, nil
}

// Models returns the full registry keyed by name.
func Models() map[string]Model {
	out := map[string]Model{}
	for _, m := range []Model{Mixtral8x7B, Mixtral8x22B, LLaMAMoE, QwenMoE, DeepSeekR1, DeepSeekV3} {
		out[m.Name] = m
	}
	return out
}

// ExpertsPerRank returns how many experts one EP rank hosts under plan p.
func (m Model) ExpertsPerRank(p TrainPlan) int {
	if p.EP <= 0 {
		return m.Experts
	}
	per := m.Experts / p.EP
	if per < 1 {
		per = 1
	}
	return per
}

// Validate checks internal consistency of a (model, plan) pairing.
func Validate(m Model, p TrainPlan) error {
	if p.EP <= 0 || p.TP <= 0 || p.PP <= 0 {
		return fmt.Errorf("moe: plan degrees must be positive: %+v", p)
	}
	if m.Experts%p.EP != 0 && p.EP%m.Experts != 0 {
		return fmt.Errorf("moe: %s: %d experts not divisible across EP=%d", m.Name, m.Experts, p.EP)
	}
	if p.PP > m.Blocks {
		return fmt.Errorf("moe: %s: PP=%d exceeds %d blocks", m.Name, p.PP, m.Blocks)
	}
	if m.TopK > m.Experts {
		return fmt.Errorf("moe: %s: topK %d > experts %d", m.Name, m.TopK, m.Experts)
	}
	return nil
}

// FLOP-count helpers (per token). These drive the analytical compute model
// used by internal/dag; only their relative magnitudes matter and they are
// calibrated against Figure 3 (see dag.Calibration).

// AttnFLOPsPerToken approximates attention FLOPs per token: QKVO projections
// (8 h^2) plus score/value matmuls over the sequence (4 s h, causal halved).
func (m Model) AttnFLOPsPerToken(seqLen int) float64 {
	h := float64(m.Hidden)
	return 8*h*h + 2*float64(seqLen)*h
}

// GateFLOPsPerToken is the router matmul: hidden x experts.
func (m Model) GateFLOPsPerToken() float64 {
	return 2 * float64(m.Hidden) * float64(m.Experts)
}

// ExpertFLOPsPerToken is one expert's SwiGLU FFN: three matmuls
// (gate, up, down) of h x ffn.
func (m Model) ExpertFLOPsPerToken() float64 {
	return 6 * float64(m.Hidden) * float64(m.FFN)
}

// TokenBytes is the wire size of one token's hidden state.
func (m Model) TokenBytes() float64 { return float64(m.Hidden * m.BytesElem) }

// GradBytes is the gradient volume all-reduced by DP each iteration, per
// model replica (parameters x bytes).
func (m Model) GradBytes() float64 { return m.ParamsB * 1e9 * float64(m.BytesElem) }
