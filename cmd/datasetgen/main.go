// datasetgen runs the EEG dataset generation and annotation pipeline
// (§III-B) for a set of synthetic subjects and exports the labelled windows
// as CSV (one row per window: subject, label, then per-channel features), or
// prints a summary.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"

	"cognitivearm/internal/dataset"
	"cognitivearm/internal/eeg"
)

func main() {
	subjects := flag.Int("subjects", 5, "number of synthetic subjects")
	seconds := flag.Float64("seconds", 60, "session length per subject")
	window := flag.Int("window", 190, "window size in samples")
	seed := flag.Uint64("seed", 1, "generation seed")
	out := flag.String("o", "", "write feature CSV to this path ('' = summary only)")
	flag.Parse()

	ids := make([]int, *subjects)
	for i := range ids {
		ids[i] = i
	}
	bySubject, _, err := dataset.Build(ids, 1, dataset.ShortProtocol(*seconds), *window, *seed)
	if err != nil {
		log.Fatal(err)
	}

	total := 0
	fmt.Printf("%-8s %8s %8s %8s %8s\n", "subject", "windows", "idle", "left", "right")
	for _, id := range ids {
		ws := bySubject[id]
		counts := dataset.ClassCounts(ws)
		fmt.Printf("%-8d %8d %8d %8d %8d\n", id, len(ws),
			counts[eeg.Idle], counts[eeg.Left], counts[eeg.Right])
		total += len(ws)
	}
	fmt.Printf("total: %d windows of %d samples × %d channels\n", total, *window, eeg.NumChannels)

	if *out == "" {
		return
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	defer w.Flush()
	fmt.Fprint(w, "subject,label")
	for _, ch := range eeg.ChannelNames {
		for _, stat := range []string{"mean", "std", "min", "max", "var"} {
			fmt.Fprintf(w, ",%s_%s", ch, stat)
		}
	}
	fmt.Fprintln(w)
	for _, id := range ids {
		for _, win := range bySubject[id] {
			fmt.Fprintf(w, "%d,%s", id, win.Label)
			for _, v := range dataset.FeatureVector(win) {
				fmt.Fprintf(w, ",%.6g", v)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Printf("wrote %s\n", *out)
}
