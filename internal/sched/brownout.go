package sched

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// BrownoutConfig enables SLO-driven brownout: when the SLO engine's
// fast-burn window trips, admission sheds the lowest-priority classes
// first, climbing a ladder as the burn worsens. Level k (1-based)
// engages at a fast burn of k — one full error budget per rung. Nil (the
// default) disables brownout entirely, so existing deployments and tests
// are untouched.
type BrownoutConfig struct {
	// Ladder lists the minimum admitted priority per brownout level:
	// at level i (1-based) submissions with priority < Ladder[i-1] are
	// shed. Later rungs are at least as strict as earlier ones;
	// ParseBrownoutLadder refuses a falling rung.
	Ladder []int
}

// ParseBrownoutLadder parses the -brownout flag of the daemons: a
// comma-separated list of minimum admitted priorities, one per brownout
// level ("1,2"). Empty input returns nil, which keeps brownout off. A
// falling rung is refused: it would readmit, as the burn worsens, the
// priorities that an earlier level shed.
func ParseBrownoutLadder(spec string) (*BrownoutConfig, error) {
	if spec == "" {
		return nil, nil
	}
	var ladder []int
	for _, item := range strings.Split(spec, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(item))
		if err != nil {
			return nil, fmt.Errorf("ladder rung %q: %v", item, err)
		}
		if n := len(ladder); n > 0 && p < ladder[n-1] {
			return nil, fmt.Errorf("ladder rung %q: admits priority %d, which rung %d sheds; later rungs must be at least as strict", item, p, n)
		}
		ladder = append(ladder, p)
	}
	return &BrownoutConfig{Ladder: ladder}, nil
}

// BrownoutShedError is returned by Submit when brownout level Level is
// active and the submission's priority class is below the ladder rung.
// The HTTP layer maps it to 503 brownout_shed with a Retry-After hint.
type BrownoutShedError struct {
	Level       int
	Priority    int
	MinPriority int
	RetryAfter  time.Duration
}

func (e *BrownoutShedError) Error() string {
	return fmt.Sprintf("sched: brownout level %d sheds priority %d (minimum admitted: %d); retry after %v",
		e.Level, e.Priority, e.MinPriority, e.RetryAfter)
}

// DeadlineInfeasibleError is returned by Submit when the client's
// remaining deadline cannot plausibly cover a solve (it is below
// Config.DeadlineMargin times the rolling service-time estimate), so
// admitting the job would only burn device time on work that is dead on
// arrival. The HTTP layer maps it to 422 deadline_infeasible — a client
// error, not a retryable overload.
type DeadlineInfeasibleError struct {
	Deadline time.Duration
	Estimate time.Duration
}

func (e *DeadlineInfeasibleError) Error() string {
	return fmt.Sprintf("sched: deadline %v cannot cover a solve (recent solves take ~%v)",
		e.Deadline, e.Estimate)
}

// BrownoutLevel reports the active brownout level: 0 when brownout is
// off or the worst class's fast burn is below 1, otherwise the highest
// level k that burn reaches (burn >= k). The level is recomputed from
// the SLO engine on every call and exported as the sched_brownout_level
// gauge.
func (s *Scheduler) BrownoutLevel() int {
	bc := s.cfg.Brownout
	if bc == nil || len(bc.Ladder) == 0 {
		return 0
	}
	rep := s.cfg.SLO.Report()
	maxBurn := 0.0
	for _, c := range rep.Classes {
		if c.BurnFast > maxBurn {
			maxBurn = c.BurnFast
		}
	}
	level := 0
	for i := range bc.Ladder {
		if maxBurn >= float64(i+1) {
			level = i + 1
		}
	}
	s.met.brownout.Set(float64(level))
	return level
}

// svcEWMA tracks service wall time with exponential smoothing; the
// deadline-infeasibility gate compares client deadlines against it.
const svcEWMAAlpha = 0.2

func (s *Scheduler) observeService(wall float64) {
	if wall <= 0 {
		return
	}
	s.mu.Lock()
	if s.svcEWMA == 0 {
		s.svcEWMA = wall
	} else {
		s.svcEWMA += svcEWMAAlpha * (wall - s.svcEWMA)
	}
	s.mu.Unlock()
}

// serviceEstimate returns the smoothed service seconds (0 before any
// job completed).
func (s *Scheduler) serviceEstimate() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.svcEWMA
}
