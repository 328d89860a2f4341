// The wal subcommand family queries a daemon's write-ahead log offline —
// no running cogarmd needed, read-only, safe against live or crashed logs:
//
//	cogarm wal verify <dir>                 re-derive every Merkle root
//	cogarm wal dump [-kind k] [-since n] <dir>   print entries as JSON lines
//
// verify recomputes each batch and segment root from the entry payloads and
// compares against the stored seals and footers; a single flipped payload
// byte surfaces as a mismatch on its segment. dump streams the audit trail:
// session records, manifests, models, audit events and prediction decisions
// in sequence order, decoding the fixed-binary kinds in place.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"cognitivearm/internal/checkpoint"
	"cognitivearm/internal/wal"
)

func runWal(args []string) {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: cogarm wal verify|dump [flags] <dir>")
		os.Exit(2)
	}
	switch args[0] {
	case "verify":
		walVerify(args[1:])
	case "dump":
		walDump(args[1:])
	default:
		fmt.Fprintf(os.Stderr, "cogarm wal: unknown verb %q (verify|dump)\n", args[0])
		os.Exit(2)
	}
}

// walVerify prints one report per segment and exits non-zero when any root,
// CRC or framing check fails. A torn tail on the final segment is reported
// but is not a failure: recovery truncates it deterministically on Open.
func walVerify(args []string) {
	fs := flag.NewFlagSet("cogarm wal verify", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cogarm wal verify <dir>")
		os.Exit(2)
	}
	reports, err := wal.Verify(fs.Arg(0))
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(reports)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cogarm wal verify: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "cogarm wal verify: %d segment(s) clean\n", len(reports))
}

// dumpLine is one WAL entry rendered for humans and jq: the frame envelope
// plus a decoded detail object for the kinds the CLI understands.
type dumpLine struct {
	Seq     uint64 `json:"seq"`
	Kind    string `json:"kind"`
	Segment string `json:"segment"`
	Sealed  bool   `json:"sealed"`
	Bytes   int    `json:"bytes"`
	Detail  any    `json:"detail,omitempty"`
}

func walDump(args []string) {
	fs := flag.NewFlagSet("cogarm wal dump", flag.ExitOnError)
	kindFlag := fs.String("kind", "", "only entries of this kind (session|refs|model|audit|decision)")
	since := fs.Uint64("since", 0, "only entries with seq strictly above this")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cogarm wal dump [-kind k] [-since n] <dir>")
		os.Exit(2)
	}
	enc := json.NewEncoder(os.Stdout)
	n := 0
	err := wal.Dump(fs.Arg(0), func(e wal.Entry) error {
		if e.Seq <= *since {
			return nil
		}
		if *kindFlag != "" && kindName(e.Kind) != *kindFlag {
			return nil
		}
		n++
		return enc.Encode(dumpLine{
			Seq:     e.Seq,
			Kind:    kindName(e.Kind),
			Segment: e.Segment,
			Sealed:  e.Sealed,
			Bytes:   len(e.Data),
			Detail:  decodeDetail(e),
		})
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "cogarm wal dump: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "cogarm wal dump: %d entries\n", n)
}

func kindName(k wal.Kind) string {
	switch k {
	case wal.KindSession:
		return "session"
	case wal.KindRefs:
		return "refs"
	case wal.KindModel:
		return "model"
	case wal.KindAudit:
		return "audit"
	case wal.KindDecision:
		return "decision"
	default:
		return fmt.Sprintf("kind-%d", k)
	}
}

// decodeDetail renders the kinds the CLI can decode; undecodable payloads
// (future kinds, a damaged record) degrade to the envelope alone rather
// than aborting the dump.
func decodeDetail(e wal.Entry) any {
	switch e.Kind {
	case wal.KindSession:
		var rec checkpoint.SessionRecord
		if checkpoint.DecodeSessionRecord(e.Data, &rec) != nil {
			return nil
		}
		return map[string]any{
			"session": rec.ID, "ver": rec.Ver, "shard": rec.Shard,
			"model": rec.ModelKey, "tag": rec.Tag,
		}
	case wal.KindRefs:
		man, err := checkpoint.DecodeRefs(e.Data)
		if err != nil {
			return nil
		}
		return map[string]any{
			"sessions": len(man.Refs), "next_id": man.NextID, "shards": len(man.Shards),
		}
	case wal.KindAudit:
		ev, err := wal.DecodeEvent(e.Data)
		if err != nil {
			return nil
		}
		d := map[string]any{
			"event": ev.Type.String(), "time_ns": ev.Time,
			"shard": ev.Shard, "session": ev.Session,
		}
		if a, b := ev.Type.ArgNames(); a != "" {
			d[a] = ev.A
			if b != "" {
				d[b] = ev.B
			}
		}
		return d
	case wal.KindDecision:
		dec, err := wal.DecodeDecision(e.Data)
		if err != nil {
			return nil
		}
		return map[string]any{
			"session": dec.Session, "ver": dec.Ver,
			"decoded": dec.Decoded, "agreed": dec.Agreed,
		}
	}
	return nil
}
