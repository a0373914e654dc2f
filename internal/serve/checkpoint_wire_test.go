package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"dard/internal/trace"
)

// TestCheckpointAppendMatchesMarshal pins the hand-written checkpoint
// encoder to json.Marshal of the same container, byte for byte: IDs
// that need escaping, nil and empty sessions and histories, and floats
// across encoding/json's spelling boundaries. A non-finite float fails
// both.
func TestCheckpointAppendMatchesMarshal(t *testing.T) {
	events := []trace.Event{
		{T: 0, Kind: trace.KindFlowStart, Flow: 0, Link: -1, A: 3, B: 9, V: 2.68435456e8},
		{T: 0.1 + 0.2, Kind: trace.KindControlMsg, Flow: -1, Link: -1, V: 1e-7},
		{T: 1e21, Kind: trace.Kind(200), Flow: math.MaxInt32, Link: math.MinInt32, A: math.MinInt64, B: math.MaxInt64, V: math.Copysign(0, -1)},
	}
	cases := []checkpointWire{
		{Version: checkpointVersion, ID: "job-1", Session: []byte("engine state\x00\xff"), Events: events, EventsCRC: eventsCRC(events)},
		{Version: checkpointVersion, ID: "<job&\u2028\xff>", Session: []byte{}, Events: []trace.Event{}, EventsCRC: math.MaxUint32},
		{Version: -1},
	}
	for i, w := range cases {
		got, err := w.appendJSON(nil)
		want, wantErr := json.Marshal(w)
		if err != nil || wantErr != nil {
			t.Fatalf("case %d: appendJSON error %v, json.Marshal error %v", i, err, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("case %d:\n got %s\nwant %s", i, got, want)
		}
	}
	bad := checkpointWire{Events: []trace.Event{{T: math.NaN()}}}
	if _, err := bad.appendJSON(nil); err == nil {
		t.Error("a NaN event time was encoded")
	}
}
