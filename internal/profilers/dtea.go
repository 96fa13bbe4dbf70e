package profilers

import "repro/internal/events"

// NameDTEA names the dispatch-tagged TEA configuration.
const NameDTEA = "D-TEA"

// NewDTEA builds the dispatch-tagged TEA variant the paper evaluated
// but omitted for space (Section 5): TEA's full nine-event set combined
// with IBS-style dispatch tagging. The paper notes it "yields similar
// accuracy to IBS, SPE, and RIS" — demonstrating that the event set is
// not what separates TEA from the front-end taggers; time-proportional
// selection is.
func NewDTEA(interval, jitter, seed uint64) *FrontEndTagger {
	return newTagger(NameDTEA, TagDispatch, events.TEASet, interval, jitter, seed)
}

// EventSetAblation evaluates the Figure 3 tradeoff: the accuracy of a
// time-proportional TEA unit when its PSV tracks progressively larger
// event sets drawn from the event hierarchies. Smaller sets cost fewer
// bits but merge components; the error is measured against a golden
// reference projected onto the same set, so it isolates *sampling*
// accuracy — the interpretability loss is visible in the shrinking
// component count instead.
type EventSetAblation struct {
	// Name labels the configuration (e.g. "2-bit stall-only").
	Name string
	// Set is the tracked event set.
	Set events.Set
}

// AblationLadder returns the PSV-width ladder of Figure 3, from a
// single stall bit to TEA's full nine events.
func AblationLadder() []EventSetAblation {
	return []EventSetAblation{
		{"0-bit (TIP: no events)", 0},
		{"2-bit stalls (ST-L1, ST-TLB)", events.NewSet(events.STL1, events.STTLB)},
		{"3-bit stalls (+ST-LLC)", events.NewSet(events.STL1, events.STTLB, events.STLLC)},
		{"6-bit (+flushes)", events.NewSet(events.STL1, events.STTLB, events.STLLC,
			events.FLMB, events.FLEX, events.FLMO)},
		{"9-bit (TEA: +drain events)", events.TEASet},
	}
}
