package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cognitivearm/internal/evo"
	"cognitivearm/internal/models"
)

func TestTableIShape(t *testing.T) {
	rows := TableI()
	if len(rows) != 5 {
		t.Fatalf("Table I has %d rows, want 5", len(rows))
	}
	for _, r := range rows {
		if r.Condition == "" || r.EMGImpact == "" || r.EEGCase == "" {
			t.Fatalf("incomplete row %+v", r)
		}
	}
}

func TestTableIIIncludesOurRow(t *testing.T) {
	rows := TableII(0.9)
	last := rows[len(rows)-1]
	if !strings.Contains(last.Solution, "CognitiveArm") {
		t.Fatalf("last row %+v", last)
	}
	if last.Accuracy != "90%" {
		t.Fatalf("measured accuracy formatted as %q", last.Accuracy)
	}
	if len(rows) != 14 {
		t.Fatalf("Table II rows %d", len(rows))
	}
}

func TestTableIIIMentionsAllFamilies(t *testing.T) {
	s := TableIII()
	for _, fam := range []string{"LSTM", "CNN", "RandomForest", "Transformer"} {
		if !strings.Contains(s, fam) {
			t.Fatalf("Table III missing %s:\n%s", fam, s)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	r := Fig5(1)
	// 50 Hz line must collapse by orders of magnitude.
	if r.Line50Clean > r.Line50Raw/100 {
		t.Fatalf("50 Hz power %v → %v; want ≥100× reduction", r.Line50Raw, r.Line50Clean)
	}
	// Alpha band must survive.
	alphaIdx := 2
	if r.Bands[alphaIdx].Name != "alpha" {
		t.Fatal("band order changed")
	}
	if r.CleanPower[alphaIdx] < r.RawPower[alphaIdx]*0.3 {
		t.Fatalf("alpha destroyed: %v → %v", r.RawPower[alphaIdx], r.CleanPower[alphaIdx])
	}
	if r.SNRClean <= r.SNRRaw {
		t.Fatalf("SNR should improve: %v → %v", r.SNRRaw, r.SNRClean)
	}
	if !strings.Contains(r.String(), "alpha") {
		t.Fatal("render missing bands")
	}
}

func TestFig4Shape(t *testing.T) {
	r, err := Fig4(150, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.LSL.SyncErrorMs >= r.UDP.SyncErrorMs {
		t.Fatalf("LSL sync %.2f ms should beat UDP %.2f ms", r.LSL.SyncErrorMs, r.UDP.SyncErrorMs)
	}
	if r.UDP.BandwidthEfficiency <= r.LSL.BandwidthEfficiency {
		t.Fatal("UDP should win bandwidth efficiency")
	}
	if !strings.Contains(r.String(), "reliability") {
		t.Fatal("render missing axes")
	}
}

// quickZoo trains the Quick-scale zoo once for every test that reads it.
var quickZoo = sync.OnceValues(func() (*Zoo, error) { return TrainZoo(Quick()) })

// zoo returns the shared Quick-scale zoo, skipping under -short.
func zoo(t *testing.T) *Zoo {
	t.Helper()
	if testing.Short() {
		t.Skip("trains the paper's four models and the compression CNN")
	}
	z, err := quickZoo()
	if err != nil {
		t.Fatal(err)
	}
	return z
}

// quickHeadline computes the Quick zoo's headline once, LOSO folds and
// all, for TestHeadline and TestQuickGolden.
var quickHeadline = sync.OnceValues(func() (*HeadlineResult, error) {
	z, err := quickZoo()
	if err != nil {
		return nil, err
	}
	return Headline(z)
})

// headline returns the shared Quick-scale headline, skipping under -short.
func headline(t *testing.T) *HeadlineResult {
	t.Helper()
	zoo(t)
	r, err := quickHeadline()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestZooPaperEnsemble(t *testing.T) {
	z := zoo(t)
	if len(z.Pool) != 4 || len(z.Specs) != 4 || len(z.Results) != 4 {
		t.Fatalf("pool %d, specs %d, results %d; want 4", len(z.Pool), len(z.Specs), len(z.Results))
	}
	ens := z.Ensemble()
	if len(ens.Members) != 2 {
		t.Fatalf("ensemble members %d (want CNN+Transformer)", len(ens.Members))
	}
	var fams []models.Family
	for i, clf := range z.Pool {
		for _, m := range ens.Members {
			if m == clf {
				fams = append(fams, z.Specs[i].Family)
			}
		}
	}
	if len(fams) != 2 || fams[0] != models.FamilyCNN || fams[1] != models.FamilyTransformer {
		t.Fatalf("ensemble families %v, want CNN then Transformer", fams)
	}
	if acc := models.Accuracy(ens, z.Val); acc < 0.4 {
		t.Fatalf("ensemble accuracy %v below sanity floor", acc)
	}
}

func TestFig11Shape(t *testing.T) {
	entries := Fig11(zoo(t))
	if len(entries) != 11 {
		t.Fatalf("ensemble combinations %d want 11", len(entries))
	}
	// Entries are accuracy-sorted; all latencies positive.
	for i, e := range entries {
		if e.InferenceSec <= 0 {
			t.Fatalf("entry %d latency %v", i, e.InferenceSec)
		}
		if i > 0 && e.Accuracy > entries[i-1].Accuracy {
			t.Fatal("entries not sorted by accuracy")
		}
	}
}

func TestFig12Shape(t *testing.T) {
	entries, err := Fig12(zoo(t))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	byName := map[string]Fig12Entry{}
	for _, e := range entries {
		names = append(names, e.Name)
		byName[e.Name] = e
	}
	want := "prune-0% prune-30% prune-50% prune-70% prune-90% int8-per-tensor int8-global-naive"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("rows %q, want %q", got, want)
	}
	dense := byName["prune-0%"]
	p70 := byName["prune-70%"]
	quant := byName["int8-global-naive"]
	if dense.Accuracy < 0.6 {
		t.Skipf("baseline too weak at quick scale: %v", dense.Accuracy)
	}
	// The Figure 12 shape: 70% pruning nearly free, naive int8 fast but
	// destructive, and int8 latency is the lowest of all points.
	if p70.Accuracy < dense.Accuracy-0.15 {
		t.Fatalf("70%% pruning dropped too much: %v → %v", dense.Accuracy, p70.Accuracy)
	}
	if quant.InferenceSec >= p70.InferenceSec {
		t.Fatal("int8 should be faster than pruned fp32")
	}
	if quant.Accuracy > dense.Accuracy {
		t.Fatal("naive int8 should not beat the dense baseline")
	}
}

func TestHeadline(t *testing.T) {
	z, r := zoo(t), headline(t)
	if len(r.PerModel) != 4 {
		t.Fatalf("per-model rows %d, want the zoo's four models", len(r.PerModel))
	}
	for i, spec := range z.Specs {
		c, ok := r.PerModel[spec.ID()]
		if !ok || c.Accuracy != z.Results[i].ValAcc || c.Clf != z.Pool[i] {
			t.Fatalf("per-model row for %s is %+v, want the zoo's model and accuracy %v", spec.ID(), c, z.Results[i].ValAcc)
		}
	}
	if want := models.Accuracy(z.Ensemble(), z.Val); r.EnsembleAcc != want {
		t.Fatalf("ensemble accuracy %v, want the zoo ensemble's %v", r.EnsembleAcc, want)
	}
	if len(r.LOSOFolds) != len(z.Scale.SubjectIDs) {
		t.Fatalf("LOSO folds %d, want one per subject (%d)", len(r.LOSOFolds), len(z.Scale.SubjectIDs))
	}
	if !(r.CI91Lo <= r.LOSOMean && r.LOSOMean <= r.CI91Hi) {
		t.Fatalf("LOSO mean %v outside its 91%% CI [%v, %v]", r.LOSOMean, r.CI91Lo, r.CI91Hi)
	}
	if !(r.QuantLatencySec < r.PrunedLatencySec && r.PrunedLatencySec < r.EnsembleLatencySec) {
		t.Fatalf("latencies int8 %v, pruned %v, ensemble %v: want int8 < pruned < ensemble",
			r.QuantLatencySec, r.PrunedLatencySec, r.EnsembleLatencySec)
	}
	if s := r.String(); !strings.Contains(s, "CNN+Transformer ensemble: acc") {
		t.Fatalf("render lacks the ensemble line:\n%s", s)
	}
}

func TestFamilySearchQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("evolutionary search")
	}
	sc := Quick()
	sc.EvoPopulation, sc.EvoGenerations, sc.Epochs = 4, 1, 3
	res, err := FamilySearch(sc, models.FamilyRF)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	if !strings.Contains(FrontString(res.Front), "rf-") {
		t.Fatal("front should contain RF specs")
	}
	global := GlobalFront(map[models.Family]*evo.Result{models.FamilyRF: res})
	if len(global) == 0 {
		t.Fatal("global front empty")
	}
}

// TestForEach: every index runs once, at most GOMAXPROCS at a time, and
// the error returned is the lowest failing index's, whatever order the
// calls finish in.
func TestForEach(t *testing.T) {
	const n = 40
	var mu sync.Mutex
	ran := make([]int, n)
	inFlight, most := 0, 0
	err := forEach(n, func(i int) error {
		mu.Lock()
		ran[i]++
		inFlight++
		most = max(most, inFlight)
		mu.Unlock()
		time.Sleep(time.Duration(n-i) * 50 * time.Microsecond)
		mu.Lock()
		inFlight--
		mu.Unlock()
		if i%7 == 3 {
			return fmt.Errorf("fail %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "fail 3" {
		t.Fatalf("error %v, want the lowest failing index's (fail 3)", err)
	}
	for i, c := range ran {
		if c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
	if limit := runtime.GOMAXPROCS(0); most > limit {
		t.Fatalf("%d calls in flight, want at most GOMAXPROCS = %d", most, limit)
	}
}
