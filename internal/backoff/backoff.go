// Package backoff centralizes the retry pauses used across the grid:
// capped exponential growth and a uniform place to honor a server's
// Retry-After hint.
package backoff

import "time"

// Policy describes a capped exponential backoff schedule that doubles per
// attempt. The zero value is unusable (zero pauses); construct one with
// explicit Base and Cap.
type Policy struct {
	// Base is the pause before the first retry (attempt 0).
	Base time.Duration
	// Cap bounds the grown pause (<= 0 means uncapped).
	Cap time.Duration
}

// Pause returns the pause before retry `attempt` (0-based): Base doubled
// attempt times, capped.
func (p Policy) Pause(attempt int) time.Duration {
	pause := float64(p.Base)
	for i := 0; i < attempt; i++ {
		pause *= 2
		if p.Cap > 0 && pause >= float64(p.Cap) {
			pause = float64(p.Cap)
			break
		}
	}
	if p.Cap > 0 && pause > float64(p.Cap) {
		pause = float64(p.Cap)
	}
	return time.Duration(pause)
}

// PauseHint is Pause unless the server supplied an authoritative
// Retry-After delay (hint > 0), which wins outright: the server knows when
// its rate bucket refills or its restart completes better than any
// client-side schedule.
func (p Policy) PauseHint(attempt int, hint time.Duration) time.Duration {
	if hint > 0 {
		return hint
	}
	return p.Pause(attempt)
}
