package board

import (
	"testing"
	"time"

	"cognitivearm/internal/eeg"
)

func TestInfoShape(t *testing.T) {
	b := NewSyntheticCyton(eeg.NewSubject(0), 1, false)
	info := b.Info()
	if info.Channels != 16 || info.SampleRateHz != 125 {
		t.Fatalf("info %+v", info)
	}
	if len(info.ChannelNames) != 16 {
		t.Fatalf("channel names %v", info.ChannelNames)
	}
}

func TestOnDemandRead(t *testing.T) {
	b := NewSyntheticCyton(eeg.NewSubject(0), 1, false)
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	b.SetState(eeg.Left)
	got := b.ReadInto(nil, 250)
	if len(got) != 250 {
		t.Fatalf("read %d samples, want 250", len(got))
	}
	for i, s := range got {
		if s.Seq != uint64(i) {
			t.Fatalf("sequence gap at %d: %d", i, s.Seq)
		}
		if len(s.Values) != 16 {
			t.Fatalf("sample %d has %d channels", i, len(s.Values))
		}
	}
}

func TestStartStopStateMachine(t *testing.T) {
	b := NewSyntheticCyton(eeg.NewSubject(1), 2, false)
	if err := b.Stop(); err == nil {
		t.Fatal("stopping a stopped board should error")
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err == nil {
		t.Fatal("double start should error")
	}
	if err := b.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatalf("restart should work: %v", err)
	}
	b.Stop()
}

func TestRealtimePacing(t *testing.T) {
	b := NewSyntheticCyton(eeg.NewSubject(0), 3, true)
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	if err := b.Stop(); err != nil {
		t.Fatal(err)
	}
	got := b.ReadInto(nil, 0)
	// 200 ms at 125 Hz ≈ 25 samples; allow generous scheduling slack.
	if len(got) < 10 || len(got) > 60 {
		t.Fatalf("realtime pacing produced %d samples in 200 ms", len(got))
	}
}

func TestSetStateAffectsSignal(t *testing.T) {
	b := NewSyntheticCyton(eeg.NewSubject(0), 4, false)
	b.Start()
	defer b.Stop()
	b.SetState(eeg.Right)
	if b.State() != eeg.Right {
		t.Fatal("state not stored")
	}
}
