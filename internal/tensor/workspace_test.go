package tensor

import "testing"

// TestWorkspaceRecyclesBuckets: after a Reset, identically sized requests
// must come back on the same backing arrays — the property the zero-alloc
// steady state rests on.
func TestWorkspaceRecyclesBuckets(t *testing.T) {
	ws := NewWorkspace()
	a := ws.Floats(100)
	m := ws.Uninit(7, 9)
	is := ws.Ints(33)
	ws.Reset()
	b := ws.Floats(100)
	m2 := ws.Uninit(7, 9)
	is2 := ws.Ints(33)
	if &a[0] != &b[0] {
		t.Fatal("float slice not recycled across Reset")
	}
	if &m.Data[0] != &m2.Data[0] {
		t.Fatal("matrix backing not recycled across Reset")
	}
	if m != m2 {
		t.Fatal("matrix header not recycled across Reset")
	}
	if &is[0] != &is2[0] {
		t.Fatal("int slice not recycled across Reset")
	}
}

// TestWorkspaceZeroing: Floats/Ints/Zeros must be zero even when the bucket
// hands back dirty memory from the previous cycle.
func TestWorkspaceZeroing(t *testing.T) {
	ws := NewWorkspace()
	f := ws.Floats(16)
	for i := range f {
		f[i] = 1e9
	}
	z := ws.Zeros(2, 4)
	z.Fill(7)
	i := ws.Ints(5)
	for j := range i {
		i[j] = -1
	}
	ws.Reset()
	for _, v := range ws.Floats(16) {
		if v != 0 {
			t.Fatal("Floats returned dirty memory")
		}
	}
	for _, v := range ws.Zeros(2, 4).Data {
		if v != 0 {
			t.Fatal("Zeros returned dirty memory")
		}
	}
	for _, v := range ws.Ints(5) {
		if v != 0 {
			t.Fatal("Ints returned dirty memory")
		}
	}
}

// TestStackSplitWSMatchUnpooled: the WS variants must produce the exact
// values and view structure of Stack/SplitRows.
func TestStackSplitWSMatchUnpooled(t *testing.T) {
	rng := NewRNG(3)
	xs := make([]*Matrix, 4)
	for i := range xs {
		xs[i] = New(3, 5)
		for j := range xs[i].Data {
			xs[i].Data[j] = rng.NormFloat64()
		}
	}
	ws := NewWorkspace()
	want := Stack(xs)
	got := StackWS(ws, xs)
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("StackWS shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("StackWS data[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
	wantViews := SplitRows(want, 3)
	gotViews := SplitRowsWS(ws, got, 3)
	if len(gotViews) != len(wantViews) {
		t.Fatalf("SplitRowsWS returned %d views, want %d", len(gotViews), len(wantViews))
	}
	for i := range wantViews {
		for j := range wantViews[i].Data {
			if wantViews[i].Data[j] != gotViews[i].Data[j] {
				t.Fatalf("view %d data %d mismatch", i, j)
			}
		}
	}
	// Views must share the stacked storage (no copy).
	gotViews[0].Data[0] = 42
	if got.Data[0] != 42 {
		t.Fatal("SplitRowsWS views must alias the source matrix")
	}
}

// TestWorkspaceSteadyStateAllocs pins the core promise: a repeated,
// identically shaped cycle through every getter allocates nothing after the
// first pass.
func TestWorkspaceSteadyStateAllocs(t *testing.T) {
	ws := NewWorkspace()
	xs := make([]*Matrix, 8)
	for i := range xs {
		xs[i] = New(10, 4)
	}
	cycle := func() {
		ws.Reset()
		ws.Floats(100)
		ws.Ints(17)
		ws.FloatRows(9)
		ws.Matrices(5)
		ws.Zeros(6, 6)
		m := StackWS(ws, xs)
		SplitRowsWS(ws, m, 10)
	}
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("steady-state workspace cycle allocates %.1f times per run, want 0", avg)
	}
}
