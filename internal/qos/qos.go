// Package qos implements the brownout controller: a deterministic,
// policy-driven degradation ladder that keeps an interactive latency SLO
// alive under overload and thermal pressure by spending the cheapest
// quality currency first.
//
// The controller consumes three pressure signals the serving layer
// already produces — SLO error-budget burn rate (internal/obs
// semantics), admission-queue occupancy, and thermal headroom on the
// accelerator (internal/thermal, plus the internal/faults trip state) —
// and folds them into one scalar pressure in [0, ∞). Pressure moves a
// level up an ordered ladder of reversible actions:
//
//	L1  shed best-effort traffic at admission (QoS classes)
//	L2  + downshift models to cheaper same-task fallbacks
//	L3  + steer batches off the hot accelerator delegate
//
// Climbing is immediate (one rung per decision tick); descending is
// hysteretic: pressure must stay below the rung's exit threshold for
// Hold consecutive ticks before the controller steps down, so the
// system re-arms without flapping. The controller is a pure state
// machine on explicit inputs — no clocks, no goroutines, no
// allocation on the tick path — so the virtual-time simulator and the
// wall-clock HTTP frontend drive the exact same code and a seeded storm
// replays byte-identically at any host parallelism.
package qos

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Class is a request's QoS class. Lower values are more important:
// the ladder sheds from the bottom up.
type Class uint8

// The serving classes, most to least important.
const (
	Interactive Class = iota
	Standard
	BestEffort
	// NumClasses counts the classes above.
	NumClasses = 3
)

// String names the class the way ParseClass accepts it.
func (c Class) String() string {
	switch c {
	case Interactive:
		return "interactive"
	case Standard:
		return "standard"
	case BestEffort:
		return "best-effort"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// ParseClass parses a class name. The empty string is Standard — the
// default for traffic that never declared a class.
func ParseClass(s string) (Class, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "standard", "std":
		return Standard, nil
	case "interactive", "int":
		return Interactive, nil
	case "best-effort", "besteffort", "be":
		return BestEffort, nil
	}
	return Standard, fmt.Errorf("%w: unknown class %q (want interactive, standard or best-effort)", ErrBadLadder, s)
}

// NumRungs is the ladder's depth: shed, downshift, steer.
const NumRungs = 3

// ErrBadLadder tags every ladder-configuration validation error, so
// callers at the edges can distinguish bad policy input from runtime
// failures with errors.Is.
var ErrBadLadder = errors.New("qos: bad ladder config")

// Ladder is the brownout policy: decision cadence, per-rung thresholds,
// hysteresis, and the pressure-signal normalization constants.
type Ladder struct {
	// Tick is the decision cadence (virtual time in the simulator, wall
	// clock in the HTTP frontend).
	Tick time.Duration
	// Enter[i] is the pressure at or above which the controller climbs
	// from level i to i+1. Exit[i] is the pressure below which level
	// i+1 may step back down; each Exit must sit strictly below its
	// Enter or the ladder flaps.
	Enter [NumRungs]float64
	Exit  [NumRungs]float64
	// Hold is how many consecutive ticks pressure must stay below the
	// exit threshold before the controller descends one rung.
	Hold int
	// ShortTicks and LongTicks are the burn-rate horizons in ticks: the
	// short horizon reacts fast, the long horizon keeps one calm tick
	// from resetting the picture (the multiwindow rule internal/obs
	// alerts on, scaled down to controller cadence).
	ShortTicks, LongTicks int
	// Budget is the error budget the burn rate is measured against
	// (0.05 = a 95% objective).
	Budget float64
	// Page is the burn rate that normalizes to pressure 1.0 — burning
	// the budget Page times faster than allowed saturates the signal.
	Page float64
	// SteerHeadroomC is the thermal headroom (trip minus die
	// temperature, °C) below which thermal pressure ramps from 0
	// toward 1 at zero headroom — so steering engages before the trip.
	SteerHeadroomC float64
}

// Defaults fills every zero field with the standard policy.
func (l Ladder) Defaults() Ladder {
	if l.Tick == 0 {
		l.Tick = 50 * time.Millisecond
	}
	if l.Enter == ([NumRungs]float64{}) {
		l.Enter = [NumRungs]float64{0.5, 0.7, 0.9}
	}
	if l.Exit == ([NumRungs]float64{}) {
		l.Exit = [NumRungs]float64{0.25, 0.4, 0.6}
	}
	if l.Hold == 0 {
		l.Hold = 8
	}
	if l.ShortTicks == 0 {
		l.ShortTicks = 4
	}
	if l.LongTicks == 0 {
		l.LongTicks = 16
	}
	if l.Budget == 0 {
		l.Budget = 0.05
	}
	if l.Page == 0 {
		l.Page = 10
	}
	if l.SteerHeadroomC == 0 {
		l.SteerHeadroomC = 10
	}
	return l
}

// badNumber rejects the values that slip through comparison-based
// range checks: NaN compares false against everything.
func badNumber(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// Validate reports the first problem with the ladder. All errors wrap
// ErrBadLadder.
func (l Ladder) Validate() error {
	if l.Tick <= 0 {
		return fmt.Errorf("%w: tick must be positive, got %v", ErrBadLadder, l.Tick)
	}
	if l.Hold < 1 {
		return fmt.Errorf("%w: hold must be at least 1 tick, got %d", ErrBadLadder, l.Hold)
	}
	if l.ShortTicks < 1 {
		return fmt.Errorf("%w: short horizon must be at least 1 tick, got %d", ErrBadLadder, l.ShortTicks)
	}
	if l.LongTicks < l.ShortTicks {
		return fmt.Errorf("%w: long horizon (%d) must cover the short one (%d)", ErrBadLadder, l.LongTicks, l.ShortTicks)
	}
	if l.LongTicks > 4096 {
		return fmt.Errorf("%w: long horizon %d is over the 4096-tick cap", ErrBadLadder, l.LongTicks)
	}
	if badNumber(l.Budget) || l.Budget <= 0 || l.Budget >= 1 {
		return fmt.Errorf("%w: budget must be in (0,1), got %g", ErrBadLadder, l.Budget)
	}
	if badNumber(l.Page) || l.Page <= 0 {
		return fmt.Errorf("%w: page burn must be positive, got %g", ErrBadLadder, l.Page)
	}
	if badNumber(l.SteerHeadroomC) || l.SteerHeadroomC <= 0 {
		return fmt.Errorf("%w: steer headroom must be positive, got %g", ErrBadLadder, l.SteerHeadroomC)
	}
	for i := 0; i < NumRungs; i++ {
		if badNumber(l.Enter[i]) || l.Enter[i] <= 0 {
			return fmt.Errorf("%w: enter[%d] must be positive, got %g", ErrBadLadder, i, l.Enter[i])
		}
		if badNumber(l.Exit[i]) || l.Exit[i] <= 0 {
			return fmt.Errorf("%w: exit[%d] must be positive, got %g", ErrBadLadder, i, l.Exit[i])
		}
		if l.Exit[i] >= l.Enter[i] {
			return fmt.Errorf("%w: exit[%d] (%g) must sit below enter[%d] (%g) for hysteresis",
				ErrBadLadder, i, l.Exit[i], i, l.Enter[i])
		}
		if i > 0 && l.Enter[i] < l.Enter[i-1] {
			return fmt.Errorf("%w: enter thresholds must be non-decreasing (enter[%d]=%g < enter[%d]=%g)",
				ErrBadLadder, i, l.Enter[i], i-1, l.Enter[i-1])
		}
	}
	return nil
}

// ParseLadder parses a ladder spec of the form "key=value,...":
//
//	tick=50ms hold=8 short=4 long=16 budget=0.05 page=10 headroom=10
//	enter=0.5/0.7/0.9 exit=0.25/0.4/0.6
//
// Unset keys take the defaults; "on", "default" or the empty string is
// the all-defaults ladder. Every parse or range error wraps
// ErrBadLadder.
func ParseLadder(spec string) (Ladder, error) {
	l := Ladder{}.Defaults()
	trimmed := strings.TrimSpace(spec)
	if trimmed == "" || strings.EqualFold(trimmed, "on") || strings.EqualFold(trimmed, "default") {
		return l, nil
	}
	for _, part := range strings.Split(trimmed, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return Ladder{}, fmt.Errorf("%w: %q is not key=value", ErrBadLadder, part)
		}
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		var err error
		switch key {
		case "tick":
			l.Tick, err = time.ParseDuration(val)
		case "hold":
			l.Hold, err = strconv.Atoi(val)
		case "short":
			l.ShortTicks, err = strconv.Atoi(val)
		case "long":
			l.LongTicks, err = strconv.Atoi(val)
		case "budget":
			l.Budget, err = strconv.ParseFloat(val, 64)
		case "page":
			l.Page, err = strconv.ParseFloat(val, 64)
		case "headroom":
			l.SteerHeadroomC, err = strconv.ParseFloat(val, 64)
		case "enter":
			l.Enter, err = parseRungs(val)
		case "exit":
			l.Exit, err = parseRungs(val)
		default:
			return Ladder{}, fmt.Errorf("%w: unknown key %q", ErrBadLadder, key)
		}
		if err != nil {
			return Ladder{}, fmt.Errorf("%w: %s=%q: %v", ErrBadLadder, key, val, err)
		}
	}
	return l, l.Validate()
}

// parseRungs parses "a/b/c" into per-rung thresholds.
func parseRungs(val string) ([NumRungs]float64, error) {
	var out [NumRungs]float64
	parts := strings.Split(val, "/")
	if len(parts) != NumRungs {
		return out, fmt.Errorf("want %d slash-separated values", NumRungs)
	}
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return out, fmt.Errorf("bad threshold %q", p)
		}
		out[i] = v
	}
	return out, nil
}

// Signals are the per-tick pressure inputs the serving layer samples.
type Signals struct {
	// QueueFrac is the fullest admission queue's occupancy in [0,1].
	QueueFrac float64
	// HeadroomC is the accelerator's thermal headroom: trip temperature
	// minus die temperature (+Inf when no trip point is modeled).
	HeadroomC float64
	// Tripped reports the accelerator already hard-tripped (thermal
	// model or fault plan) — pressure saturates and steering is forced.
	Tripped bool
}

// Pressure-driver names, interned so the tick path never allocates.
const (
	DriverIdle    = "idle"
	DriverBurn    = "burn"
	DriverQueue   = "queue"
	DriverThermal = "thermal"
)

// Tick is one decision's outcome.
type Tick struct {
	// Level is the ladder level after the decision (0 = no degradation).
	Level int
	// From is the level before it; Changed marks a transition.
	From    int
	Changed bool
	// Pressure is the folded scalar the decision used, Driver the
	// signal that dominated it, Burn the min(short, long) burn rate.
	Pressure float64
	Driver   string
	Burn     float64
}

// tickCount is one closed tick's good/bad tally.
type tickCount struct{ good, bad float64 }

// Controller is the brownout state machine. It is not synchronized:
// the simulator drives it single-threaded on virtual time, the HTTP
// frontend guards it with the server mutex.
type Controller struct {
	lad    Ladder
	frozen bool

	ring      []tickCount // last LongTicks closed ticks
	tick      int         // index of the next tick to close
	good, bad float64     // open-tick accumulators

	level int
	calm  int // consecutive ticks below the exit threshold
}

// NewController validates the ladder and returns a controller at level
// 0 with empty burn history.
func NewController(l Ladder) (*Controller, error) {
	l = l.Defaults()
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return &Controller{lad: l, ring: make([]tickCount, l.LongTicks)}, nil
}

// Ladder returns the validated policy the controller runs.
func (c *Controller) Ladder() Ladder { return c.lad }

// Freeze pins the controller at level 0: pressure and burn are still
// computed and reported every tick, but no action ever engages. This
// is the observe-only baseline the storm comparison runs.
func (c *Controller) Freeze() { c.frozen = true }

// Frozen reports whether the controller is observe-only.
func (c *Controller) Frozen() bool { return c.frozen }

// ObserveGood and ObserveBad feed one SLO-scored request outcome into
// the open tick. Shed requests are not fed back — the controller's own
// action must not hold its pressure up, or it never recovers.
func (c *Controller) ObserveGood() { c.good++ }

// ObserveBad records one SLO breach (late or rejected).
func (c *Controller) ObserveBad() { c.bad++ }

// Level returns the current ladder level.
func (c *Controller) Level() int { return c.level }

// Shed reports whether admission should turn class away right now.
// Only best-effort traffic is ever shed: the ladder's premise is that
// interactive and standard requests are what the shedding protects.
func (c *Controller) Shed(class Class) bool {
	return c.level >= 1 && class == BestEffort
}

// Downshift reports whether requests should be rewritten to their
// configured cheaper fallback models.
func (c *Controller) Downshift() bool { return c.level >= 2 }

// Steer reports whether batches should run on the steer delegate
// instead of the configured (hot) accelerator.
func (c *Controller) Steer() bool { return c.level >= NumRungs }

// burn computes the budget-burn rate over the last n closed ticks.
func (c *Controller) burn(n int) float64 {
	var good, bad float64
	for w := c.tick - n; w < c.tick; w++ {
		if w < 0 {
			continue
		}
		t := c.ring[w%len(c.ring)]
		good += t.good
		bad += t.bad
	}
	total := good + bad
	if total == 0 {
		return 0
	}
	return (bad / total) / c.lad.Budget
}

// TickAt closes the open observation tick and runs one ladder
// decision. now is informational (it stamps nothing inside the
// controller); the caller owns the cadence. The tick path performs no
// allocation — it is the serving hot loop's companion.
func (c *Controller) TickAt(now time.Duration, sig Signals) Tick {
	c.ring[c.tick%len(c.ring)] = tickCount{c.good, c.bad}
	c.tick++
	c.good, c.bad = 0, 0

	burnShort := c.burn(c.lad.ShortTicks)
	burnLong := c.burn(c.lad.LongTicks)
	burn := burnShort
	if burnLong < burn {
		burn = burnLong
	}

	// Fold the three signals into one scalar; the largest wins and
	// names the driver (ties resolve burn > queue > thermal).
	burnP := burn / c.lad.Page
	queueP := sig.QueueFrac
	if queueP < 0 || math.IsNaN(queueP) {
		queueP = 0
	} else if queueP > 1 {
		queueP = 1
	}
	thermP := 0.0
	if sig.Tripped {
		thermP = 2
	} else if sig.HeadroomC < c.lad.SteerHeadroomC {
		thermP = (c.lad.SteerHeadroomC - sig.HeadroomC) / c.lad.SteerHeadroomC
		if thermP > 2 {
			thermP = 2
		}
	}
	pressure, driver := burnP, DriverBurn
	if queueP > pressure {
		pressure, driver = queueP, DriverQueue
	}
	if thermP > pressure {
		pressure, driver = thermP, DriverThermal
	}
	if pressure == 0 {
		driver = DriverIdle
	}

	out := Tick{From: c.level, Pressure: pressure, Driver: driver, Burn: burn}
	if !c.frozen {
		switch {
		case c.level < NumRungs && pressure >= c.lad.Enter[c.level]:
			// Climb one rung per tick: the ladder is ordered, each
			// action gets a tick to bite before the next engages.
			c.level++
			c.calm = 0
		case c.level > 0 && pressure < c.lad.Exit[c.level-1]:
			c.calm++
			if c.calm >= c.lad.Hold {
				c.level--
				c.calm = 0
			}
		default:
			// In the hysteresis band (or at level 0): hold, and any
			// accumulated calm is forfeit.
			c.calm = 0
		}
	}
	out.Level = c.level
	out.Changed = out.Level != out.From
	return out
}
