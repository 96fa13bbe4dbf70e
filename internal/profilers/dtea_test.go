package profilers

import (
	"testing"

	"repro/internal/events"
)

func TestDTEAConstruction(t *testing.T) {
	d := NewDTEA(256, 16, 1)
	if d.Profile().Name != NameDTEA {
		t.Errorf("name = %q", d.Profile().Name)
	}
	if d.Profile().Set != events.TEASet {
		t.Errorf("D-TEA must track TEA's full event set")
	}
	if d.point != TagDispatch {
		t.Errorf("D-TEA must tag at dispatch")
	}
}

func TestAblationLadderShape(t *testing.T) {
	ladder := AblationLadder()
	if len(ladder) < 4 {
		t.Fatalf("ladder has %d rungs", len(ladder))
	}
	if ladder[0].Set != 0 {
		t.Errorf("first rung should be TIP (no events)")
	}
	if ladder[len(ladder)-1].Set != events.TEASet {
		t.Errorf("last rung should be TEA's full set")
	}
	for i := 1; i < len(ladder); i++ {
		if ladder[i].Set.Bits() <= ladder[i-1].Set.Bits() {
			t.Errorf("ladder bits not strictly ascending at rung %d", i)
		}
		// Each rung is a superset of the previous.
		for _, e := range ladder[i-1].Set.Events() {
			if !ladder[i].Set.Has(e) {
				t.Errorf("rung %d dropped event %v from rung %d", i, e, i-1)
			}
		}
	}
}
