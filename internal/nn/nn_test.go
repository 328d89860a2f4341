package nn

import (
	"math"
	"strings"
	"testing"

	"cognitivearm/internal/tensor"
)

// toyProblem builds a linearly separable sequence-classification task: the
// class determines which input column carries a positive mean.
func toyProblem(n, timesteps, features, classes int, seed uint64) []Example {
	rng := tensor.NewRNG(seed)
	out := make([]Example, n)
	for i := range out {
		label := rng.Intn(classes)
		x := tensor.New(timesteps, features)
		for t := 0; t < timesteps; t++ {
			row := x.Row(t)
			for j := range row {
				row[j] = 0.3 * rng.NormFloat64()
			}
			row[label%features] += 1.0
		}
		out[i] = Example{X: x, Label: label}
	}
	return out
}

func TestCrossEntropyValues(t *testing.T) {
	logits := tensor.FromSlice(1, 3, []float64{0, 0, 0})
	loss, grad := CrossEntropy(logits, 1)
	if math.Abs(loss-math.Log(3)) > 1e-12 {
		t.Fatalf("uniform loss %v want ln3", loss)
	}
	// grad = p - onehot
	if math.Abs(grad.Data[0]-1.0/3) > 1e-12 || math.Abs(grad.Data[1]+2.0/3) > 1e-12 {
		t.Fatalf("grad %v", grad.Data)
	}
}

func TestCrossEntropyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad label")
		}
	}()
	CrossEntropy(tensor.New(1, 3), 5)
}

func TestNetworkParamCount(t *testing.T) {
	rng := tensor.NewRNG(1)
	net := NewNetwork(NewDense(10, 5, rng), NewReLU(), NewDense(5, 3, rng))
	want := 10*5 + 5 + 5*3 + 3
	if got := net.NumParams(); got != want {
		t.Fatalf("params %d want %d", got, want)
	}
	if !strings.Contains(net.String(), "Dense(10→5)") {
		t.Fatalf("String() = %q", net.String())
	}
}

func TestDenseShapePanic(t *testing.T) {
	rng := tensor.NewRNG(1)
	d := NewDense(4, 2, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong input width")
		}
	}()
	forward1(d, tensor.New(1, 5), false)
}

func TestConvOutLen(t *testing.T) {
	rng := tensor.NewRNG(1)
	c := NewConv1D(2, 3, 5, 2, rng)
	cases := map[int]int{5: 1, 6: 1, 7: 2, 9: 3, 4: 0}
	for in, want := range cases {
		if got := c.OutLen(in); got != want {
			t.Fatalf("OutLen(%d)=%d want %d", in, got, want)
		}
	}
}

func TestPoolForwardValues(t *testing.T) {
	x := tensor.FromSlice(4, 2, []float64{
		1, 10,
		3, 20,
		2, 5,
		4, 0,
	})
	maxP := NewPool1D(MaxPoolKind, 2)
	y := forward1(maxP, x, false)
	if y.Rows != 2 || y.At(0, 0) != 3 || y.At(0, 1) != 20 || y.At(1, 0) != 4 {
		t.Fatalf("max pool wrong: %+v", y.Data)
	}
	avgP := NewPool1D(AvgPoolKind, 2)
	y2 := forward1(avgP, x, false)
	if y2.At(0, 0) != 2 || y2.At(0, 1) != 15 {
		t.Fatalf("avg pool wrong: %+v", y2.Data)
	}
}

func TestDropoutTrainVsEval(t *testing.T) {
	rng := tensor.NewRNG(5)
	d := NewDropout(0.5, rng)
	x := tensor.New(1, 1000)
	x.Fill(1)
	// Eval: identity.
	y := forward1(d, x, false)
	for _, v := range y.Data {
		if v != 1 {
			t.Fatal("eval-mode dropout must be identity")
		}
	}
	// Train: ~half zeroed, survivors scaled by 2.
	y = forward1(d, x, true)
	zeros, twos := 0, 0
	for _, v := range y.Data {
		switch v {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("unexpected dropout output %v", v)
		}
	}
	if zeros < 350 || zeros > 650 {
		t.Fatalf("dropout rate off: %d/1000 zeroed", zeros)
	}
	_ = twos
}

func TestDropoutBadP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDropout(1.0, tensor.NewRNG(1))
}

func TestLSTMForwardShape(t *testing.T) {
	rng := tensor.NewRNG(2)
	l := NewLSTM(4, 8, rng)
	y := forward1(l, randInput(10, 4, 3), false)
	if y.Rows != 10 || y.Cols != 8 {
		t.Fatalf("LSTM output %dx%d", y.Rows, y.Cols)
	}
	// Hidden states bounded by tanh×sigmoid.
	for _, v := range y.Data {
		if v < -1 || v > 1 {
			t.Fatalf("hidden state %v out of [-1,1]", v)
		}
	}
}

func TestAttentionRowsSumToOne(t *testing.T) {
	rng := tensor.NewRNG(4)
	m := NewMultiHeadAttention(8, 2, rng)
	// Train mode keeps each head's softmax weights.
	forward1(m, randInput(6, 8, 5), true)
	if len(m.attn) != m.Heads {
		t.Fatalf("%d heads' weights kept, want %d", len(m.attn), m.Heads)
	}
	for h, a := range m.attn {
		for i := 0; i < a.Rows; i++ {
			var s float64
			for _, v := range a.Row(i) {
				if v < 0 {
					t.Fatalf("negative attention weight head %d", h)
				}
				s += v
			}
			if math.Abs(s-1) > 1e-9 {
				t.Fatalf("head %d row %d sums to %v", h, i, s)
			}
		}
	}
}

func TestAttentionHeadDivisibility(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMultiHeadAttention(10, 3, tensor.NewRNG(1))
}

func TestLayerNormOutput(t *testing.T) {
	ln := NewLayerNorm(8)
	y := forward1(ln, randInput(3, 8, 6), false)
	for i := 0; i < y.Rows; i++ {
		row := y.Row(i)
		if math.Abs(tensor.Mean(row)) > 1e-9 {
			t.Fatalf("row %d mean %v", i, tensor.Mean(row))
		}
		if math.Abs(tensor.Std(row)-1) > 1e-3 {
			t.Fatalf("row %d std %v", i, tensor.Std(row))
		}
	}
}

func TestFitLearnsDenseToy(t *testing.T) {
	rng := tensor.NewRNG(10)
	_ = rng
	train := toyProblem(200, 1, 6, 3, 11)
	val := toyProblem(60, 1, 6, 3, 12)
	net := NewNetwork(NewDense(6, 16, tensor.NewRNG(13)), NewReLU(), NewDense(16, 3, tensor.NewRNG(14)))
	hist := Fit(net, train, val, TrainConfig{Epochs: 30, BatchSize: 16, Optimizer: NewAdam(0.01), Seed: 15})
	finalAcc := hist.ValAcc[len(hist.ValAcc)-1]
	if finalAcc < 0.9 {
		t.Fatalf("dense net failed to learn toy problem: acc %v", finalAcc)
	}
	if hist.TrainLoss[0] < hist.TrainLoss[len(hist.TrainLoss)-1] {
		t.Fatal("training loss should decrease")
	}
}

func TestFitLearnsConvToy(t *testing.T) {
	train := toyProblem(150, 12, 4, 3, 21)
	val := toyProblem(50, 12, 4, 3, 22)
	rng := tensor.NewRNG(23)
	net := NewNetwork(
		NewConv1D(4, 8, 3, 2, rng),
		NewReLU(),
		NewMeanPool(),
		NewDense(8, 3, rng),
	)
	hist := Fit(net, train, val, TrainConfig{Epochs: 25, BatchSize: 16, Optimizer: NewAdam(0.005), Seed: 24})
	if acc := hist.ValAcc[len(hist.ValAcc)-1]; acc < 0.85 {
		t.Fatalf("conv net acc %v", acc)
	}
}

func TestFitLearnsLSTMToy(t *testing.T) {
	train := toyProblem(120, 8, 4, 3, 31)
	val := toyProblem(40, 8, 4, 3, 32)
	rng := tensor.NewRNG(33)
	net := NewNetwork(NewLSTM(4, 12, rng), NewLastStep(), NewDense(12, 3, rng))
	hist := Fit(net, train, val, TrainConfig{Epochs: 30, BatchSize: 12, Optimizer: NewAdam(0.01), Seed: 34})
	if acc := hist.ValAcc[len(hist.ValAcc)-1]; acc < 0.85 {
		t.Fatalf("lstm acc %v", acc)
	}
}

func TestFitLearnsTransformerToy(t *testing.T) {
	train := toyProblem(120, 8, 4, 3, 41)
	val := toyProblem(40, 8, 4, 3, 42)
	rng := tensor.NewRNG(43)
	net := NewNetwork(
		NewDense(4, 8, rng),
		NewPositionalEncoding(8),
		TransformerBlock(8, 2, 16, 0.1, rng),
		NewMeanPool(),
		NewDense(8, 3, rng),
	)
	hist := Fit(net, train, val, TrainConfig{Epochs: 30, BatchSize: 12, Optimizer: NewAdamW(0.005, 1e-4), Seed: 44})
	if acc := hist.ValAcc[len(hist.ValAcc)-1]; acc < 0.85 {
		t.Fatalf("transformer acc %v", acc)
	}
}

func TestEarlyStopping(t *testing.T) {
	train := toyProblem(60, 1, 4, 3, 51)
	val := toyProblem(20, 1, 4, 3, 52)
	rng := tensor.NewRNG(53)
	net := NewNetwork(NewDense(4, 8, rng), NewReLU(), NewDense(8, 3, rng))
	hist := Fit(net, train, val, TrainConfig{Epochs: 200, BatchSize: 16, Optimizer: NewAdam(0.01), Patience: 5, Seed: 54})
	if !hist.StoppedEarly {
		t.Skip("patience never triggered (acceptable but unusual)")
	}
	if len(hist.ValLoss) >= 200 {
		t.Fatal("early stopping did not shorten training")
	}
}

func TestOptimizersAllLearn(t *testing.T) {
	for _, name := range []string{"sgd", "rmsprop", "adam", "adamw"} {
		opt, err := NewOptimizer(name, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		train := toyProblem(150, 1, 5, 3, 61)
		val := toyProblem(50, 1, 5, 3, 62)
		rng := tensor.NewRNG(63)
		net := NewNetwork(NewDense(5, 12, rng), NewReLU(), NewDense(12, 3, rng))
		hist := Fit(net, train, val, TrainConfig{Epochs: 40, BatchSize: 16, Optimizer: opt, Seed: 64})
		if acc := hist.ValAcc[len(hist.ValAcc)-1]; acc < 0.8 {
			t.Fatalf("%s failed to learn: acc %v", name, acc)
		}
	}
	if _, err := NewOptimizer("lion", 0.01); err == nil {
		t.Fatal("unknown optimizer should error")
	}
}

func TestGradientClipping(t *testing.T) {
	rng := tensor.NewRNG(70)
	net := NewNetwork(NewDense(3, 2, rng))
	for _, p := range net.Params() {
		for i := range p.Grad.Data {
			p.Grad.Data[i] = 100
		}
	}
	clipGrads(net, 1.0)
	var total float64
	for _, p := range net.Params() {
		for _, g := range p.Grad.Data {
			total += g * g
		}
	}
	if math.Abs(math.Sqrt(total)-1.0) > 1e-9 {
		t.Fatalf("clipped norm %v want 1", math.Sqrt(total))
	}
}

func TestEvaluateEmpty(t *testing.T) {
	net := NewNetwork(NewDense(2, 2, tensor.NewRNG(1)))
	l, a := Evaluate(net, nil)
	if l != 0 || a != 0 {
		t.Fatal("empty evaluation should be zero")
	}
}

func TestPredictAndProbs(t *testing.T) {
	rng := tensor.NewRNG(80)
	net := NewNetwork(NewDense(4, 3, rng))
	x := randInput(1, 4, 81)
	probs := net.Probs(x)
	var sum float64
	for _, p := range probs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probs sum %v", sum)
	}
	if net.Predict(x) != tensor.Argmax(probs) {
		t.Fatal("Predict disagrees with Probs argmax")
	}
}
