package experiments

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cognitivearm/internal/models"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from this run")

const quickGolden = "testdata/quick.golden"

// hex writes x exactly: two runs agree on a line only if they agree on
// every bit of its numbers.
func hex(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }

// saveDigest is the SHA-256 of c's models.Save bytes: every trained weight.
func saveDigest(t *testing.T, c models.Classifier) string {
	t.Helper()
	var buf bytes.Buffer
	if err := models.Save(&buf, c); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
}

// TestQuickGolden pins the Quick-scale science bit for bit: each zoo
// model's per-epoch losses and accuracy and its saved weights, every
// Figure 11 and 12 row, every §V headline number but its wall time (the
// LOSO folds included), and a transformer search's final population.
// `go test -run TestQuickGolden -update` rewrites testdata/quick.golden;
// any diff there is a change to the science and needs its reason.
func TestQuickGolden(t *testing.T) {
	z := zoo(t)
	var b strings.Builder
	line := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }

	for i, spec := range z.Specs {
		h := z.Results[i].History
		for e := range h.TrainLoss {
			line("zoo %s epoch %d train_loss %s val_loss %s val_acc %s",
				spec.ID(), e, hex(h.TrainLoss[e]), hex(h.ValLoss[e]), hex(h.ValAcc[e]))
		}
		line("zoo %s save %s", spec.ID(), saveDigest(t, z.Pool[i]))
	}
	line("zoo compression save %s", saveDigest(t, z.Compression))

	for _, e := range Fig11(z) {
		line("fig11 %s acc %s latency %s params %d", e.Name, hex(e.Accuracy), hex(e.InferenceSec), e.Params)
	}
	fig12, err := Fig12(z)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range fig12 {
		line("fig12 %s acc %s latency %s params %d sparsity %s",
			e.Name, hex(e.Accuracy), hex(e.InferenceSec), e.Params, hex(e.Sparsity))
	}

	r := headline(t)
	var ids []string
	for id := range r.PerModel {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		c := r.PerModel[id]
		line("headline model %s acc %s params %d", id, hex(c.Accuracy), c.Params)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"ensemble_acc", r.EnsembleAcc}, {"ensemble_latency", r.EnsembleLatencySec},
		{"pruned_acc", r.PrunedAcc}, {"pruned_latency", r.PrunedLatencySec},
		{"quant_acc", r.QuantAcc}, {"quant_latency", r.QuantLatencySec},
		{"loso_mean", r.LOSOMean}, {"loso_std", r.LOSOStd},
		{"ci91_lo", r.CI91Lo}, {"ci91_hi", r.CI91Hi},
	} {
		line("headline %s %s", f.name, hex(f.v))
	}
	for i, acc := range r.LOSOFolds {
		line("headline loso_fold %d acc %s", i, hex(acc))
	}

	sc := Quick()
	sc.EvoPopulation, sc.EvoGenerations, sc.Epochs = 4, 1, 3
	res, err := FamilySearch(sc, models.FamilyTransformer)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range res.Population {
		line("search transformer %d %s acc %s params %d fitness %s save %s",
			i, c.Spec.ID(), hex(c.Accuracy), c.Params, hex(c.Fitness), saveDigest(t, c.Clf))
	}

	got := b.String()
	if *update {
		if err := os.WriteFile(quickGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(quickGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to write it)", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("%s:%d:\n got  %s\n want %s", quickGolden, i+1, g, w)
		}
	}
}
