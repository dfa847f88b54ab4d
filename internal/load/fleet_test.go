package load

import (
	"context"
	"testing"
)

// TestFleetRefill wires the steady-state client machinery into the
// fleet: each group gets a background refiller, and Close tears the
// refillers down before the pools.
func TestFleetRefill(t *testing.T) {
	rig := newLoadRig(t)
	cfg := testFleetConfig(rig.addr, rig.oracle())
	cfg.Refill = 16
	fleet, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	if len(fleet.stops) != cfg.Groups {
		t.Fatalf("%d refiller stops for %d groups", len(fleet.stops), cfg.Groups)
	}

	// Two oracle-checked rounds per group: exactness through refilled
	// pools, on repeat queries.
	for round := 0; round < 2; round++ {
		for i := 0; i < cfg.Groups; i++ {
			if err := fleet.Run(context.Background(), int64(i)); err != nil {
				t.Fatalf("round %d group %d: %v", round, i, err)
			}
		}
	}
	// Close is idempotent and stops the refillers exactly once.
	fleet.Close()
	if fleet.stops != nil {
		t.Fatal("Close did not clear the refiller stops")
	}
	fleet.Close()
}

// TestFleetCloseOnPartialBuild pins the construction-failure unwind:
// Close on a fleet whose later groups were never built must not panic.
func TestFleetCloseOnPartialBuild(t *testing.T) {
	f := &Fleet{groups: make([]*fleetGroup, 3)}
	f.Close()
}
