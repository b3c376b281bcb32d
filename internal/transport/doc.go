// Package transport abstracts how protocol messages move between the
// nodes of a live deployment. The simulator routes through simnet
// directly; live nodes bridge that same network onto a Transport.
//
// A Transport delivers simnet.Message values addressed by node id. TCP,
// the one implementation, carries frames over real TCP connections: each
// message is encoded with internal/wire, length-prefixed, and written to
// a per-peer outbound queue whose writer goroutine dials lazily, redials
// with exponential backoff, and drains on graceful shutdown. Peer
// addresses come from a static topology (see core.ClusterConfig).
//
// The AHL protocol family is designed for lossy, partially-synchronous
// networks — every layer retransmits with backoff — so the TCP transport
// deliberately keeps fire-and-forget semantics: a frame that cannot be
// queued or written (peer down, queue full, mid-reconnect) is dropped and
// counted, never buffered unboundedly or blocked on.
package transport
