// Package dist executes one mapped ExecPlan across OS processes: a
// coordinator compiles the program, fingerprints the rewritten graph, and
// drives shard workers over TCP — each shard compiles the same source
// locally (verifying the fingerprint, so the graph never crosses the wire
// twice), runs its slice of the worker set as a sharded MappedEngine, and
// exchanges cross-shard edge batches directly with its peers. Epoch
// barriers reuse the coordinated-checkpoint machinery: every shard
// exports the state it owns, the coordinator assembles the canonical
// byte-interchangeable image, and a shard crash (process kill, socket
// reset, heartbeat loss, wedged barrier) rolls the survivors back to that
// image and re-plans the dead shard's partitions onto them — the
// fingerprint never changes, so the stream resumes bit-identical.
package dist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Wire framing: every message is
//
//	u32 magic "STRW" | u8 type | u32 payload length | payload | u32 CRC
//
// little-endian, CRC-32C (Castagnoli) over type + length + payload. The
// length is validated against MaxFrame BEFORE any payload allocation, and
// the payload buffer grows with the bytes that actually arrive, so a torn
// or hostile header cannot trigger a huge allocation; the CRC rejects
// corrupted frames before their payload is parsed. Payloads
// (messages.go) are lists of internal/wire primitives — the codec of the
// checkpoint image — read through its sticky-error Reader under the
// "dist: payload" prefix.

const (
	frameMagic = 0x57525453 // "STRW" little-endian

	// MaxFrame caps a frame's payload; larger length prefixes are
	// rejected before allocation. Checkpoint images for the app suite are
	// tens of kilobytes; 64 MiB leaves room for very large graphs.
	MaxFrame = 64 << 20

	// frameHdrLen is magic + type + payload length.
	frameHdrLen = 4 + 1 + 4

	// frameChunk is what readFrame allocates on the word of a length prefix
	// alone; beyond it the buffer at most doubles per step of received
	// bytes. Every frame the app suite sends fits in one chunk.
	frameChunk = 64 << 10
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// msgType enumerates the frame types.
type msgType byte

const (
	mtInvalid   msgType = iota
	mtHello             // shard -> coordinator: join (name, data address)
	mtJob               // coordinator -> shard: program + plan options + fingerprint
	mtJobOK             // shard -> coordinator: local compile verified the fingerprint
	mtAssign            // coordinator -> shard: generation topology (+ optional restore image)
	mtReady             // shard -> coordinator: engine built, links up, restored
	mtRun               // coordinator -> shard: run one epoch
	mtBarrier           // shard -> coordinator: owned slice of the barrier state
	mtAbort             // coordinator -> shard: tear down the generation
	mtAborted           // shard -> coordinator: teardown complete
	mtHeartbeat         // shard -> coordinator: liveness
	mtBye               // coordinator -> shard: clean shutdown
	mtError             // either direction: fatal error report
	mtLinkHello         // shard -> shard on a data connection: identify + generation
	mtBatch             // shard -> shard: one edge's per-iteration batch
)

func (t msgType) String() string {
	names := [...]string{"invalid", "hello", "job", "jobok", "assign", "ready", "run",
		"barrier", "abort", "aborted", "heartbeat", "bye", "error", "linkhello", "batch"}
	if int(t) < len(names) {
		return names[t]
	}
	return fmt.Sprintf("type(%d)", byte(t))
}

// frameCRC computes the frame checksum over type + length + payload.
func frameCRC(t msgType, payload []byte) uint32 {
	var hdr [5]byte
	hdr[0] = byte(t)
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	crc := crc32.Update(0, castagnoli, hdr[:])
	return crc32.Update(crc, castagnoli, payload)
}

// EncodeFrame assembles one wire frame.
func EncodeFrame(t msgType, payload []byte) []byte {
	b := make([]byte, 0, frameHdrLen+len(payload)+4)
	b = binary.LittleEndian.AppendUint32(b, frameMagic)
	b = append(b, byte(t))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = append(b, payload...)
	b = binary.LittleEndian.AppendUint32(b, frameCRC(t, payload))
	return b
}

// writeFrame ships one frame in a single Write.
func writeFrame(w io.Writer, t msgType, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("dist: refusing to send %d-byte %s payload (cap %d)", len(payload), t, MaxFrame)
	}
	_, err := w.Write(EncodeFrame(t, payload))
	return err
}

// readFrame reads one frame from a buffered reader. The length prefix is
// validated against MaxFrame before the payload buffer is allocated, and
// the buffer is sized by what has been received, not by what was declared:
// a header that promises 64 MiB and delivers nothing costs one chunk.
func readFrame(r *bufio.Reader) (msgType, []byte, error) {
	var hdr [frameHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	if m := binary.LittleEndian.Uint32(hdr[:]); m != frameMagic {
		return 0, nil, fmt.Errorf("dist: bad frame magic %#x", m)
	}
	t := msgType(hdr[4])
	n := binary.LittleEndian.Uint32(hdr[5:])
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("dist: frame payload of %d bytes exceeds the %d-byte cap", n, MaxFrame)
	}
	total := int(n) + 4
	var body []byte
	for len(body) < total {
		// frameChunk on the header's word, then as much again as arrived.
		step := min(total-len(body), max(len(body), frameChunk))
		body = slices.Grow(body, step)[:len(body)+step]
		if _, err := io.ReadFull(r, body[len(body)-step:]); err != nil {
			return 0, nil, err
		}
	}
	payload := body[:n]
	crc := binary.LittleEndian.Uint32(body[n:])
	if crc != frameCRC(t, payload) {
		return 0, nil, fmt.Errorf("dist: frame CRC mismatch on %s frame", t)
	}
	return t, payload, nil
}
