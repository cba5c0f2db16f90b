package analysis_test

import (
	"testing"

	"mykil/internal/analysis"
	"mykil/internal/wire"
)

// kindInventory is the pinned census of wire kinds, in wire-value order.
// Adding a kind to internal/wire means extending this list in the same
// change — the analyzer, the runtime registry, and this test must agree.
// An empty entry is a reserved value: no Kind constant, no decoder.
var kindInventory = []string{
	"JoinRequest", "JoinChallenge", "JoinResponse", "JoinRefer",
	"JoinGrant", "JoinToAC", "JoinWelcome", "JoinDenied",
	"RejoinRequest", "RejoinChallenge", "RejoinResponse",
	"RejoinVerifyReq", "RejoinVerifyResp", "RejoinWelcome", "RejoinDenied",
	"Data", "KeyUpdate", "PathUpdate",
	"ACAlive", "MemberAlive", "LeaveNotice", "PathRequest",
	"AreaJoinReq", "AreaJoinAck", "AreaJoinDenied",
	"", // 26: the retired full-state ReplicaSync push
	"ReplicaHeartbeat", "ACFailover",
	"Election", "ElectionOK", "Coordinator", "SegmentPull", "SegmentPush",
	"AreaReassign",
}

// TestWireKindCensus pins the analyzer's view of the wire package to the
// runtime registry: every Kind constant wireexhaustive counts must have a
// body factory, a protocol name, and its spot in the pinned inventory,
// and every reserved spot must stay without a constant or a decoder.
func TestWireKindCensus(t *testing.T) {
	pkg, err := getLoader(t).Load(wireDir)
	if err != nil {
		t.Fatalf("loading internal/wire: %v", err)
	}
	census := analysis.WireKindCensus(pkg)

	var live int
	for i, name := range kindInventory {
		if name != "" {
			live++
		} else if _, ok := wire.NewBody(wire.Kind(i + 1)); ok {
			t.Errorf("reserved kind %d has a decoder", i+1)
		}
	}
	if len(census) != live {
		t.Fatalf("census found %d Kind constants, want %d", len(census), live)
	}
	for _, k := range census {
		if k.WireName == "" || k.Value < 1 || k.Value > uint64(len(kindInventory)) || k.WireName != kindInventory[k.Value-1] {
			t.Errorf("%s (%q) has value %d, which the inventory does not give it", k.Name, k.WireName, k.Value)
			continue
		}
		rt := wire.Kind(k.Value)
		if got := rt.String(); got != k.WireName {
			t.Errorf("%s: runtime String() = %q, analyzer census = %q", k.Name, got, k.WireName)
		}
		if _, ok := wire.NewBody(rt); !ok {
			t.Errorf("%s: wire.NewBody has no factory for value %d", k.Name, k.Value)
		}
	}
	// The registry must be exactly the census: one past the end decodes
	// as unknown.
	if _, ok := wire.NewBody(wire.Kind(len(kindInventory) + 1)); ok {
		t.Errorf("wire.NewBody accepts kind %d beyond the inventory", len(kindInventory)+1)
	}
}

// wireDir locates the real wire package relative to this test.
const wireDir = "../wire"
