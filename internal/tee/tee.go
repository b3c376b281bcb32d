// Package tee simulates the trusted execution environment (Intel SGX) that
// the paper provisions on every node.
//
// The paper's own evaluation could not run SGX either (neither their local
// cluster nor GCP exposed it), so the authors ran the SGX SDK in simulation
// mode and injected operation latencies measured on a real SGX CPU — their
// Table 2. This package does the same: every enclave operation charges its
// Table 2 cost to the owning node's virtual CPU.
//
// The threat model follows §3.3: enclave *integrity* is guaranteed (enclave
// objects can only be driven through their methods), but confidentiality is
// not, except for attestation, key generation, randomness and signing
// ("seal-glassed proofs"). The operating system — i.e. adversarial test
// code — may restart enclaves and roll back their sealed state; the
// Rollback method below exists precisely so that tests can mount the
// Appendix A attack and verify the defense.
package tee

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/blockcrypto"
	"repro/internal/sim"
)

// CostModel holds the virtual execution costs of enclave and cryptographic
// operations. The defaults reproduce the paper's Table 2 measurements on a
// Skylake 6970HQ with SGX-enabled BIOS.
type CostModel struct {
	EnclaveSwitch time.Duration // context switch into/out of the enclave
	Sign          time.Duration // ECDSA signing
	Verify        time.Duration // ECDSA verification
	SHA256        time.Duration // hashing one item
	Append        time.Duration // AHL trusted-log append (includes signing)
	Beacon        time.Duration // RandomnessBeacon invocation
	RandGen       time.Duration // sgx_read_rand
	Attest        time.Duration // remote attestation round (once per epoch)
}

// DefaultCosts returns the Table 2 cost model.
func DefaultCosts() CostModel {
	return CostModel{
		EnclaveSwitch: 2700 * time.Nanosecond,
		Sign:          time.Duration(458.4 * float64(time.Microsecond)),
		Verify:        time.Duration(844.2 * float64(time.Microsecond)),
		SHA256:        2500 * time.Nanosecond,
		Append:        time.Duration(465.3 * float64(time.Microsecond)),
		Beacon:        time.Duration(482.2 * float64(time.Microsecond)),
		RandGen:       10 * time.Microsecond,
		Attest:        2 * time.Millisecond,
	}
}

// FreeCosts returns a zero cost model, used by unit tests that assert pure
// protocol logic.
func FreeCosts() CostModel { return CostModel{} }

// Aggregate returns the cost of the AHLR message-aggregation enclave for a
// quorum of f+1 messages: one switch, f+1 verifications and one signature.
// With f = 8 this reproduces Table 2's 8031 us measurement.
func (c CostModel) Aggregate(f int) time.Duration {
	return c.EnclaveSwitch + time.Duration(f+1)*c.Verify + c.Sign
}

// Measurement identifies enclave code, like MRENCLAVE.
type Measurement = blockcrypto.Digest

// MeasurementOf derives the measurement for a named enclave binary.
func MeasurementOf(name string) Measurement {
	return blockcrypto.Hash([]byte("enclave:" + name))
}

// Report is a local/remote attestation report: the platform vouches that an
// enclave with the given measurement produced ReportData.
type Report struct {
	Measurement Measurement
	ReportData  blockcrypto.Digest
	Sig         blockcrypto.Signature
}

func reportDigest(m Measurement, data blockcrypto.Digest) blockcrypto.Digest {
	return blockcrypto.HashOfDigests(m, data)
}

// VerifyReport checks a report against the platform key registry and an
// expected measurement.
func VerifyReport(scheme blockcrypto.Verifier, want Measurement, r Report) bool {
	if r.Measurement != want {
		return false
	}
	return scheme.Verify(reportDigest(r.Measurement, r.ReportData), r.Sig)
}

// sealedVersion is one version of an enclave's sealed state. The platform
// keeps history so adversarial tests can roll it back.
type sealedVersion struct {
	blob    []byte
	version uint64
}

// Platform is one node's TEE-capable CPU: it owns the platform signing key,
// trusted time, monotonic counters and sealed storage, and charges enclave
// operation costs to the node's virtual CPU.
type Platform struct {
	engine *sim.Engine
	cpu    *sim.CPU
	costs  CostModel
	signer blockcrypto.Signer
	rng    *rand.Rand

	sealed   map[string][]sealedVersion
	counters map[string]uint64
}

// NewPlatform creates a platform for one node.
//
// cpu may be nil (costs are then not charged; useful in pure-logic tests).
// The signer is the platform key registered in the deployment-wide scheme,
// standing in for the Intel-provisioned attestation key.
func NewPlatform(engine *sim.Engine, cpu *sim.CPU, costs CostModel, signer blockcrypto.Signer, seed int64) *Platform {
	return &Platform{
		engine:   engine,
		cpu:      cpu,
		costs:    costs,
		signer:   signer,
		rng:      rand.New(rand.NewSource(seed)),
		sealed:   make(map[string][]sealedVersion),
		counters: make(map[string]uint64),
	}
}

// Costs returns the platform's cost model.
func (p *Platform) Costs() CostModel { return p.costs }

// Engine returns the simulation engine the platform's trusted time is
// bound to.
func (p *Platform) Engine() *sim.Engine { return p.engine }

// Charge bills d of enclave execution to the node's CPU.
func (p *Platform) Charge(d time.Duration) {
	if p.cpu != nil && d > 0 {
		p.cpu.Charge(d)
	}
}

// Now returns trusted time (sgx_get_trusted_time): virtual time since the
// simulation epoch.
func (p *Platform) Now() sim.Time { return p.engine.Now() }

// RandUint64 models sgx_read_rand: an unbiased random value that the host
// cannot influence. Determinism across runs comes from the platform seed.
func (p *Platform) RandUint64() uint64 {
	p.Charge(p.costs.RandGen)
	return uint64(p.rng.Int63())<<1 | uint64(p.rng.Int63n(2))
}

// Quote signs an attestation report binding data to the enclave
// measurement, charging the signing cost.
func (p *Platform) Quote(m Measurement, data blockcrypto.Digest) Report {
	p.Charge(p.costs.EnclaveSwitch + p.costs.Sign)
	return Report{
		Measurement: m,
		ReportData:  data,
		Sig:         p.signer.Sign(reportDigest(m, data)),
	}
}

// IncrementCounter increments and returns the named hardware monotonic
// counter. Counters survive enclave restarts and cannot be rolled back.
func (p *Platform) IncrementCounter(name string) uint64 {
	p.counters[name]++
	return p.counters[name]
}

// CounterValue reads the named monotonic counter without incrementing.
func (p *Platform) CounterValue(name string) uint64 { return p.counters[name] }

// Seal persists blob for the named enclave (data sealing). Versions are
// retained so the host can later mount a rollback.
func (p *Platform) Seal(name string, blob []byte) {
	p.Charge(p.costs.EnclaveSwitch + p.costs.SHA256)
	h := p.sealed[name]
	version := uint64(len(h)) + 1
	cp := append([]byte(nil), blob...)
	p.sealed[name] = append(h, sealedVersion{blob: cp, version: version})
}

// Unseal returns the latest sealed blob for name, or nil if none. The
// "latest" pointer is under host control: see Rollback.
func (p *Platform) Unseal(name string) []byte {
	h := p.sealed[name]
	if len(h) == 0 {
		return nil
	}
	return append([]byte(nil), h[len(h)-1].blob...)
}

// Rollback mounts the Appendix A rollback attack: the (malicious) host
// discards the newest `back` sealed versions so the next Unseal returns
// stale-but-correctly-sealed state. It returns false if there is not enough
// history.
func (p *Platform) Rollback(name string, back int) bool {
	h := p.sealed[name]
	if back <= 0 || back >= len(h) {
		return false
	}
	p.sealed[name] = h[:len(h)-back]
	return true
}

// Uint64Digest hashes a uint64 tuple into a digest; shared helper for
// enclave report data.
func Uint64Digest(parts ...uint64) blockcrypto.Digest {
	buf := make([]byte, 8*len(parts))
	for i, v := range parts {
		binary.BigEndian.PutUint64(buf[i*8:], v)
	}
	return blockcrypto.Hash(buf)
}

// ErrEnclave is the base error type for enclave refusals.
type ErrEnclave struct {
	Op     string
	Reason string
}

func (e *ErrEnclave) Error() string { return fmt.Sprintf("enclave %s: %s", e.Op, e.Reason) }
