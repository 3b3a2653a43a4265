package core

import "time"

// CostModel holds the calibrated software-stack costs that turn the
// simulated Ceph pipeline into wall-clock behaviour. The paper's computing
// analysis (§V) attributes erasure coding's overheads to the user-level
// implementation: every I/O passes client messenger → dispatcher → PG
// backend → transaction → object store, with user-mode work dominating
// (70-75% of CPU cycles). Each stage below charges user or kernel CPU on
// the node's core pool and counts context switches.
//
// Defaults are calibrated so the headline ratios land in the paper's bands
// (internal/paperref holds them; ROADMAP item 9 is the scorecard that
// checks every one); they are exposed so internal/bench's config variants
// can vary them (the "cap-off" ablation zeroes ClientDispatchSerial).
type CostModel struct {
	// Messenger costs. Recv/Send model the kernel network stack plus the
	// user-level messenger thread work per message; PerByte models copies.
	MsgRecvKernel time.Duration
	MsgRecvUser   time.Duration
	MsgSendKernel time.Duration
	MsgSendUser   time.Duration
	// MsgCopyPerKB is user-mode copy cost per KiB of message payload.
	MsgCopyPerKB time.Duration

	// Dispatcher + PG costs.
	DispatchUser time.Duration // op queue + PG mapping
	PGLogUser    time.Duration // PrimaryLogPG append

	// Transaction + store submission.
	TxnPrepUser     time.Duration // transaction build
	StoreSubmitKern time.Duration // block-layer submission
	CommitUser      time.Duration // per-subop commit handling at primary

	// EncodePerKB is the generator-matrix multiply cost per KiB of stripe
	// data per parity row (the Galois-field table path runs ≈1 GB/s/core).
	// It is the paper-calibrated fallback; EncodeMBps overrides it when set.
	EncodePerKB time.Duration
	// EncodeMBps, when > 0, derives the per-KiB encode cost from a measured
	// codec throughput (MiB of data encoded per second per parity row, as
	// reported by rs.MeasureEncodeMBps scaled by m) so simulated CPU time
	// tracks the real vectorized codec instead of a hard-coded constant.
	// Calibration is explicit (see bench.Options.CalibrateEncode): a
	// measured value varies across machines, so reproducible runs either
	// leave it zero or pin it to a recorded number.
	EncodeMBps float64
	// ConcatPerKB is the RS-concatenation cost per KiB when composing
	// chunks into a stripe.
	ConcatPerKB time.Duration

	// Client-side library costs (librbd/librados), charged on the client
	// node and therefore excluded from cluster CPU metrics.
	ClientOpUser time.Duration
	// ClientDispatchSerial is the serialized per-op section of the client's
	// librbd image queue (submission + completion dispatching). It caps a
	// single FIO/RBD client's IOPS regardless of cluster capacity, which is
	// why the paper's 4 KB random reads differ by <10% between 3-replication
	// and RS(6,3) (§IV-B).
	ClientDispatchSerial time.Duration

	// ContextSwitchesPerExec is how many OS context switches each scheduled
	// CPU burst contributes (dispatch in + out).
	ContextSwitchesPerExec int64

	// PG lock critical sections not covered by explicit stage work.
	PGLockBaseline time.Duration

	// Heartbeats (§VI-B: ~20KB/s of monitoring traffic).
	HeartbeatInterval time.Duration
	HeartbeatBytes    int64
}

// EncodeCostPerKB returns the effective per-KiB-per-parity-row encode
// cost: derived from the measured codec throughput when EncodeMBps is
// set, the paper-calibrated EncodePerKB constant otherwise.
func (cm *CostModel) EncodeCostPerKB() time.Duration {
	if cm.EncodeMBps > 0 {
		return time.Duration(float64(time.Second) / (cm.EncodeMBps * 1024))
	}
	return cm.EncodePerKB
}

// DefaultCostModel returns costs calibrated against the paper's testbed
// (2.6 GHz Xeon cores, Ceph Kraken).
func DefaultCostModel() CostModel {
	return CostModel{
		MsgRecvKernel: 8 * time.Microsecond,
		MsgRecvUser:   14 * time.Microsecond,
		MsgSendKernel: 7 * time.Microsecond,
		MsgSendUser:   8 * time.Microsecond,
		MsgCopyPerKB:  256 * time.Nanosecond, // ~4 GB/s copy

		DispatchUser: 12 * time.Microsecond,
		PGLogUser:    6 * time.Microsecond,

		TxnPrepUser:     25 * time.Microsecond,
		StoreSubmitKern: 18 * time.Microsecond,
		CommitUser:      12 * time.Microsecond,

		EncodePerKB: 1024 * time.Nanosecond, // ~1 GB/s per parity row (table GF)
		ConcatPerKB: 512 * time.Nanosecond,

		ClientOpUser:         15 * time.Microsecond,
		ClientDispatchSerial: 38 * time.Microsecond,

		ContextSwitchesPerExec: 2,

		PGLockBaseline: 4 * time.Microsecond,

		HeartbeatInterval: 6 * time.Second,
		HeartbeatBytes:    128,
	}
}
