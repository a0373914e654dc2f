package ctlmsg

import (
	"fmt"
	"math"
	"math/rand"

	"dard/internal/detrand"
)

// Faults models an unreliable control channel between a monitor and a
// switch agent. The paper's prototype exchanges state over a real
// network, where queries and replies can be lost, delayed, or
// duplicated; this seeded model injects those faults so path selection
// can be tested against a lossy control plane. The zero value is a
// perfectly reliable channel.
type Faults struct {
	// LossProb is the per-message (per direction) loss probability in
	// [0,1): a lost query or reply voids the whole exchange attempt.
	LossProb float64
	// DupProb is the per-message duplication probability in [0,1); a
	// duplicate changes nothing semantically but doubles that message's
	// wire bytes (control-overhead accounting stays honest).
	DupProb float64
	// DelayS is a fixed extra round-trip delay in seconds added to every
	// exchange attempt.
	DelayS float64
	// Seed drives the fault randomness; each channel derives its own
	// stream from it, so runs are deterministic and channels independent.
	Seed int64
}

// Enabled reports whether the model injects any fault at all; callers
// keep the synchronous fault-free fast path when it returns false.
func (f Faults) Enabled() bool {
	return f.LossProb > 0 || f.DupProb > 0 || f.DelayS > 0
}

// Validate rejects configurations that cannot be simulated: non-finite
// knobs, probabilities outside [0,1), or negative delay. Probability 1
// is excluded because a channel that loses every message with certainty
// is a dead switch, which the fault schedule models directly.
func (f Faults) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"LossProb", f.LossProb}, {"DupProb", f.DupProb}} {
		if math.IsNaN(p.v) || p.v < 0 || p.v >= 1 {
			return fmt.Errorf("ctlmsg: %s %g outside [0,1)", p.name, p.v)
		}
	}
	if math.IsNaN(f.DelayS) || math.IsInf(f.DelayS, 0) || f.DelayS < 0 {
		return fmt.Errorf("ctlmsg: DelayS %g is not a finite non-negative duration", f.DelayS)
	}
	return nil
}

// ChannelStats counts what a channel did to the traffic it carried.
type ChannelStats struct {
	// Attempts is the number of exchange attempts started.
	Attempts int
	// Lost counts messages the channel dropped (either direction).
	Lost int
	// Dups counts duplicated messages.
	Dups int
	// Bytes is the wire bytes consumed, duplicates included, lost
	// messages included (they crossed part of the network).
	Bytes int
}

// Channel is one monitor↔switch control path with its own fault stream.
// Deriving a separate RNG per channel keeps runs independent of the
// order in which monitors poll their switches.
type Channel struct {
	faults Faults
	rng    *rand.Rand
	stats  ChannelStats
}

// NewChannel builds the fault channel between one monitor and one
// switch.
func NewChannel(f Faults, monitorID uint64, switchID uint32) *Channel {
	return &Channel{
		faults: f,
		rng:    rand.New(detrand.NewStd(channelSeed(f.Seed, monitorID, switchID))),
	}
}

// Stats returns the channel's fault counters so far.
func (ch *Channel) Stats() ChannelStats { return ch.stats }

// Delay returns the fixed extra round-trip delay per attempt.
func (ch *Channel) Delay() float64 { return ch.faults.DelayS }

// TryExchange runs one query/reply attempt through the channel: the
// query crosses (or is lost), the agent serves it, and the reply crosses
// (or is lost). ok reports whether the reply made it back; wireBytes is
// what the attempt cost on the wire (duplicates and lost messages
// included — they crossed part of the network). err is reserved for
// protocol-level failures, which are bugs rather than injected faults.
func (ch *Channel) TryExchange(agent *SwitchAgent, queryBytes []byte) (reply []byte, wireBytes int, ok bool, err error) {
	ch.stats.Attempts++
	before := ch.stats.Bytes
	if !ch.cross(len(queryBytes)) {
		return nil, ch.stats.Bytes - before, false, nil
	}
	rb, err := agent.Serve(nil, queryBytes)
	if err != nil {
		return nil, ch.stats.Bytes - before, false, err
	}
	if !ch.cross(len(rb)) {
		return nil, ch.stats.Bytes - before, false, nil
	}
	return rb, ch.stats.Bytes - before, true, nil
}

// cross accounts one message traversing the channel and rolls its
// duplication and loss faults; it reports whether the message arrived.
func (ch *Channel) cross(bytes int) bool {
	ch.stats.Bytes += bytes
	if ch.faults.DupProb > 0 && ch.rng.Float64() < ch.faults.DupProb {
		ch.stats.Dups++
		ch.stats.Bytes += bytes
	}
	if ch.faults.LossProb > 0 && ch.rng.Float64() < ch.faults.LossProb {
		ch.stats.Lost++
		return false
	}
	return true
}

// Backoff is the retry schedule for failed exchanges: the base delay
// doubled per attempt already made (attempt 0 → base, 1 → 2·base, …).
func Backoff(base float64, attempt int) float64 {
	d := base
	for i := 0; i < attempt; i++ {
		d *= 2
	}
	return d
}

// channelSeed derives a channel's RNG seed from the configured fault
// seed and the channel's (monitor, switch) identity, splitmix64-style so
// nearby identities get unrelated streams.
func channelSeed(base int64, monitorID uint64, switchID uint32) int64 {
	x := uint64(base)
	x = splitmix64(x + monitorID)
	x = splitmix64(x + uint64(switchID))
	return int64(x)
}

// splitmix64 is the finalizer of the SplitMix64 generator.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
