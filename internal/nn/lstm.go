package nn

import (
	"fmt"
	"math"

	"cognitivearm/internal/tensor"
)

// LSTM is a single recurrent layer processing a T×In sequence into the full
// T×Hidden hidden-state sequence (stackable; follow with LastStep to read out
// the final state). Gates use the standard concatenated-weight layout:
// [x_t, h_{t−1}]·W + b → (i, f, g, o), each of width Hidden.
type LSTM struct {
	In, Hidden int
	Weight     *Param // (In+Hidden) × 4·Hidden
	Bias       *Param // 1 × 4·Hidden

	// per-step caches for BPTT
	steps int
	xs    *tensor.Matrix
	hs    *tensor.Matrix // (T+1)×H, row 0 = h_0 = 0
	cs    *tensor.Matrix // (T+1)×H
	gateI *tensor.Matrix // T×H sigmoid(i)
	gateF *tensor.Matrix
	gateG *tensor.Matrix // tanh(g)
	gateO *tensor.Matrix
	tc    *tensor.Matrix // tanh(c_t)
}

// NewLSTM creates the layer with Xavier-initialised weights and forget-gate
// bias of 1 (the standard trick for gradient flow at initialisation).
func NewLSTM(in, hidden int, rng *tensor.RNG) *LSTM {
	l := &LSTM{
		In: in, Hidden: hidden,
		Weight: newParam("lstm.W", in+hidden, 4*hidden),
		Bias:   newParam("lstm.b", 1, 4*hidden),
	}
	tensor.XavierInit(l.Weight.W, in+hidden, 4*hidden, rng)
	for j := hidden; j < 2*hidden; j++ {
		l.Bias.W.Data[j] = 1
	}
	return l
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Forward implements Layer.
func (l *LSTM) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != l.In {
		panic(fmt.Sprintf("nn: LSTM expects %d inputs, got %d", l.In, x.Cols))
	}
	T, H := x.Rows, l.Hidden
	hs := tensor.New(T+1, H)
	cs := tensor.New(T+1, H)
	gateI := tensor.New(T, H)
	gateF := tensor.New(T, H)
	gateG := tensor.New(T, H)
	gateO := tensor.New(T, H)
	tcM := tensor.New(T, H)

	z := make([]float64, l.In+H)
	gates := make([]float64, 4*H)
	for t := 0; t < T; t++ {
		copy(z[:l.In], x.Row(t))
		copy(z[l.In:], hs.Row(t))
		// gates = z·W + b
		for j := range gates {
			gates[j] = l.Bias.W.Data[j]
		}
		for k, zk := range z {
			if zk == 0 {
				continue
			}
			wrow := l.Weight.W.Row(k)
			for j := range gates {
				gates[j] += zk * wrow[j]
			}
		}
		hi, hf, hg, ho := gateI.Row(t), gateF.Row(t), gateG.Row(t), gateO.Row(t)
		cPrev := cs.Row(t)
		cNext := cs.Row(t + 1)
		hNext := hs.Row(t + 1)
		tc := tcM.Row(t)
		for j := 0; j < H; j++ {
			hi[j] = sigmoid(gates[j])
			hf[j] = sigmoid(gates[H+j])
			hg[j] = math.Tanh(gates[2*H+j])
			ho[j] = sigmoid(gates[3*H+j])
			cNext[j] = hf[j]*cPrev[j] + hi[j]*hg[j]
			tc[j] = math.Tanh(cNext[j])
			hNext[j] = ho[j] * tc[j]
		}
	}
	if train {
		l.steps = T
		l.xs = x
		l.hs, l.cs = hs, cs
		l.gateI, l.gateF, l.gateG, l.gateO = gateI, gateF, gateG, gateO
		l.tc = tcM
	}
	out := tensor.New(T, H)
	copy(out.Data, hs.Data[H:]) // rows 1..T
	return out
}

// ForwardBatch implements Layer: all B windows advance through the
// recurrence together. Each timestep accumulates one B×4H gate matrix in
// weight-row-major order — every row of W is streamed once per step for the
// whole batch instead of once per window — with bias-first, k-ascending
// accumulation so every gate value matches Forward bitwise.
//
//cogarm:zeroalloc
func (l *LSTM) ForwardBatch(ws *tensor.Workspace, xs []*tensor.Matrix, train bool) []*tensor.Matrix {
	batchInferenceOnly(train)
	B := len(xs)
	if B == 0 {
		return nil
	}
	if xs[0].Cols != l.In {
		panic(fmt.Sprintf("nn: LSTM expects %d inputs, got %d", l.In, xs[0].Cols))
	}
	T, H := xs[0].Rows, l.Hidden
	h := ws.Zeros(B, H)
	c := ws.Zeros(B, H)
	gates := ws.Uninit(B, 4*H) // fully overwritten from the bias each step
	out := ws.Uninit(B*T, H)
	// accumulate adds in[i]·wrow into window i's gate row for the whole
	// batch, four windows per pass so wrow loads and loop overhead amortise.
	// Per-element accumulation order stays bias-first and k-ascending,
	// matching Forward bitwise — which is why this is not a tensor.GEMM,
	// whose sums start at +0 and take the bias last.
	//cogarm:allow zeroalloc -- accumulate never escapes this frame; its tensor reads go through the annotated At/Row kernels
	accumulate := func(wrow []float64, in func(i int) float64) {
		i := 0
		for ; i+4 <= B; i += 4 {
			c0, c1, c2, c3 := in(i), in(i+1), in(i+2), in(i+3)
			if c0 == 0 && c1 == 0 && c2 == 0 && c3 == 0 {
				continue
			}
			g0, g1, g2, g3 := gates.Row(i), gates.Row(i+1), gates.Row(i+2), gates.Row(i+3)
			for j, wv := range wrow {
				g0[j] += c0 * wv
				g1[j] += c1 * wv
				g2[j] += c2 * wv
				g3[j] += c3 * wv
			}
		}
		for ; i < B; i++ {
			zk := in(i)
			if zk == 0 {
				continue
			}
			grow := gates.Row(i)
			for j, wv := range wrow {
				grow[j] += zk * wv
			}
		}
	}
	for t := 0; t < T; t++ {
		for i := 0; i < B; i++ {
			copy(gates.Row(i), l.Bias.W.Data)
		}
		for k := 0; k < l.In; k++ {
			wrow := l.Weight.W.Row(k)
			//cogarm:allow zeroalloc -- non-escaping closure call; the stack-allocated in() thunk reads one matrix cell
			accumulate(wrow, func(i int) float64 { return xs[i].At(t, k) })
		}
		for k := 0; k < H; k++ {
			wrow := l.Weight.W.Row(l.In + k)
			//cogarm:allow zeroalloc -- non-escaping closure call; the stack-allocated in() thunk reads one matrix cell
			accumulate(wrow, func(i int) float64 { return h.At(i, k) })
		}
		for i := 0; i < B; i++ {
			grow := gates.Row(i)
			crow := c.Row(i)
			hrow := h.Row(i)
			orow := out.Row(i*T + t)
			for j := 0; j < H; j++ {
				iv := sigmoid(grow[j])
				fv := sigmoid(grow[H+j])
				gv := math.Tanh(grow[2*H+j])
				ov := sigmoid(grow[3*H+j])
				crow[j] = fv*crow[j] + iv*gv
				hrow[j] = ov * math.Tanh(crow[j])
				orow[j] = hrow[j]
			}
		}
	}
	return tensor.SplitRowsWS(ws, out, T)
}

// Backward implements Layer.
func (l *LSTM) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	T, H := l.steps, l.Hidden
	dx := tensor.New(T, l.In)
	dh := make([]float64, H) // recurrent dL/dh_t
	dc := make([]float64, H)
	dgates := make([]float64, 4*H)
	z := make([]float64, l.In+H)

	for t := T - 1; t >= 0; t-- {
		hi, hf, hg, ho := l.gateI.Row(t), l.gateF.Row(t), l.gateG.Row(t), l.gateO.Row(t)
		tc := l.tc.Row(t)
		cPrev := l.cs.Row(t)
		gOut := gradOut.Row(t)
		for j := 0; j < H; j++ {
			dhj := gOut[j] + dh[j]
			// h = o·tanh(c)
			do := dhj * tc[j]
			dcj := dhj*ho[j]*(1-tc[j]*tc[j]) + dc[j]
			di := dcj * hg[j]
			df := dcj * cPrev[j]
			dg := dcj * hi[j]
			dc[j] = dcj * hf[j]
			// through the gate nonlinearities
			dgates[j] = di * hi[j] * (1 - hi[j])
			dgates[H+j] = df * hf[j] * (1 - hf[j])
			dgates[2*H+j] = dg * (1 - hg[j]*hg[j])
			dgates[3*H+j] = do * ho[j] * (1 - ho[j])
		}
		// dW += zᵀ·dgates ; db += dgates ; dz = dgates·Wᵀ
		copy(z[:l.In], l.xs.Row(t))
		copy(z[l.In:], l.hs.Row(t))
		for k, zk := range z {
			grow := l.Weight.Grad.Row(k)
			for j := range dgates {
				grow[j] += zk * dgates[j]
			}
		}
		for j := range dgates {
			l.Bias.Grad.Data[j] += dgates[j]
		}
		dxRow := dx.Row(t)
		for j := range dh {
			dh[j] = 0
		}
		for k := 0; k < l.In+H; k++ {
			wrow := l.Weight.W.Row(k)
			var s float64
			for j := range dgates {
				s += dgates[j] * wrow[j]
			}
			if k < l.In {
				dxRow[k] = s
			} else {
				dh[k-l.In] = s
			}
		}
	}
	return dx
}

// Params implements Layer.
func (l *LSTM) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// Name implements Layer.
func (l *LSTM) Name() string { return fmt.Sprintf("LSTM(%d→%d)", l.In, l.Hidden) }

// LastStep extracts the final timestep (1×C) from a T×C sequence — the
// classifier readout after stacked LSTMs.
type LastStep struct{ rows, cols int }

// NewLastStep returns the readout layer.
func NewLastStep() *LastStep { return &LastStep{} }

// Forward implements Layer.
func (s *LastStep) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if train {
		s.rows, s.cols = x.Rows, x.Cols
	}
	return tensor.FromSlice(1, x.Cols, append([]float64(nil), x.Row(x.Rows-1)...))
}

// ForwardBatch implements Layer: the B final timesteps gather into
// one B×C matrix handed out as views.
//
//cogarm:zeroalloc
func (s *LastStep) ForwardBatch(ws *tensor.Workspace, xs []*tensor.Matrix, train bool) []*tensor.Matrix {
	batchInferenceOnly(train)
	if len(xs) == 0 {
		return nil
	}
	out := ws.Uninit(len(xs), xs[0].Cols)
	for i, x := range xs {
		copy(out.Row(i), x.Row(x.Rows-1))
	}
	return tensor.SplitRowsWS(ws, out, 1)
}

// Backward implements Layer.
func (s *LastStep) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	g := tensor.New(s.rows, s.cols)
	copy(g.Row(s.rows-1), gradOut.Data)
	return g
}

// Params implements Layer.
func (s *LastStep) Params() []*Param { return nil }

// Name implements Layer.
func (s *LastStep) Name() string { return "LastStep" }
