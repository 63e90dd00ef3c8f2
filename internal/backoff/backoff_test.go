package backoff

import (
	"testing"
	"time"
)

func TestPauseGrowsAndCaps(t *testing.T) {
	p := Policy{Base: 200 * time.Millisecond, Cap: 2 * time.Second}
	want := []time.Duration{
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		1600 * time.Millisecond,
		2 * time.Second,
		2 * time.Second,
	}
	for attempt, w := range want {
		if got := p.Pause(attempt); got != w {
			t.Errorf("attempt %d: pause %v, want %v", attempt, got, w)
		}
	}
}

func TestPauseUncapped(t *testing.T) {
	p := Policy{Base: time.Second}
	if got := p.Pause(4); got != 16*time.Second {
		t.Errorf("uncapped attempt 4: %v, want 16s", got)
	}
}

func TestHintOverrides(t *testing.T) {
	p := Policy{Base: 100 * time.Millisecond, Cap: time.Second}
	if got := p.PauseHint(3, 7*time.Second); got != 7*time.Second {
		t.Errorf("hint ignored: %v", got)
	}
	if got := p.PauseHint(0, 0); got != p.Pause(0) {
		t.Errorf("absent hint must fall back to the schedule: %v", got)
	}
}
