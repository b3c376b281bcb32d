package pbft

import (
	"repro/internal/blockcrypto"
	"repro/internal/simnet"
)

// Transport-side attestation pre-verification. It serves the live
// runtime's hot path; the simulator never installs a preverifier, so its
// byte-identical schedules are untouched.

// takeVerified consumes the per-dispatch "attestation already verified"
// flag (see Replica.verifiedMsg).
func (r *Replica) takeVerified() bool {
	v := r.verifiedMsg
	r.verifiedMsg = false
	return v
}

// Preverifier returns a function the live runtime calls on transport
// goroutines, before a message enters the engine inbox, to verify its
// attestation concurrently with the engine's ordering work. It marks
// verifiable messages with Message.Verified, which Handle consumes to
// skip the engine-side check. Safe for concurrent use: it reads only the
// attestor's immutable verification material and the message itself, and
// a message it does not recognize (or fails to verify) passes through
// unmarked to the normal engine-side path.
func (r *Replica) Preverifier() func(m *simnet.Message) {
	att := r.att
	committee := r.opts.Committee
	return func(m *simnet.Message) {
		switch m.Type {
		case msgPrePrepare:
			pp, ok := m.Payload.(*prePrepareMsg)
			if !ok {
				return
			}
			leaderIdx := committee.Index(committee.Leader(pp.View))
			var digest blockcrypto.Digest
			if pp.Block != nil {
				digest = pp.Block.Digest()
			}
			m.Verified = att.verify(leaderIdx, logName(phasePrePrepare, pp.View), pp.Seq, digest, pp.Att)
		case msgPrepare, msgCommit:
			v, ok := m.Payload.(*voteMsg)
			if !ok {
				return
			}
			m.Verified = att.verify(v.Replica, logName(v.Phase, v.View), v.Seq, v.Digest, v.Att)
		case msgCheckpoint:
			ck, ok := m.Payload.(*checkpointMsg)
			if !ok {
				return
			}
			m.Verified = att.verify(ck.Replica, "checkpoint", ck.Seq, ck.State, ck.Att)
		}
	}
}
