package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary trace codec. The text codec is convenient for inspection and
// interchange, but month-long connection traces and million-packet
// traces benefit from a compact fixed-width binary format:
//
//	magic (4 bytes: "WCT1" conn / "WPT1" packet)
//	nameLen uint16, name bytes
//	horizon float64
//	count uint64, then fixed-width records
//
// All integers are little-endian; floats are IEEE-754 bits.

var (
	connMagic   = [4]byte{'W', 'C', 'T', '1'}
	packetMagic = [4]byte{'W', 'P', 'T', '1'}
)

// StreamedCount in a binary header's count field marks a streamed
// trace: the writer did not know the record count up front (wanload
// emits records as simulated users produce them), so readers decode
// until a clean EOF at a record boundary instead of counting down.
const StreamedCount = ^uint64(0)

// streamedPipelineCount is the count-field sentinel for a streamed
// trace that additionally carries a pipeline ID: a (uint16 length,
// bytes) block follows the header, before the records. A distinct
// sentinel — rather than overloading the name field — keeps arbitrary
// names lossless and plain streamed traces byte-identical to before.
const streamedPipelineCount = StreamedCount - 1

// writePipelineBlock appends the pipeline-ID block the
// streamedPipelineCount sentinel promises.
func writePipelineBlock(w io.Writer, pipeline string) error {
	if len(pipeline) > math.MaxUint16 {
		return fmt.Errorf("trace: pipeline ID too long (%d bytes)", len(pipeline))
	}
	var lenBuf [2]byte
	binary.LittleEndian.PutUint16(lenBuf[:], uint16(len(pipeline)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	_, err := io.WriteString(w, pipeline)
	return err
}

// readPipelineBlock consumes the block writePipelineBlock wrote.
func readPipelineBlock(r io.Reader) (string, error) {
	var lenBuf [2]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return "", fmt.Errorf("trace: reading pipeline ID: %w", err)
	}
	id := make([]byte, binary.LittleEndian.Uint16(lenBuf[:]))
	if _, err := io.ReadFull(r, id); err != nil {
		return "", fmt.Errorf("trace: reading pipeline ID: %w", err)
	}
	return string(id), nil
}

// WriteConnTraceBinary encodes a connection trace in the binary format.
func WriteConnTraceBinary(w io.Writer, t *ConnTrace) error {
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, connMagic, t.Name, t.Horizon, uint64(len(t.Conns))); err != nil {
		return err
	}
	for _, c := range t.Conns {
		var rec [41]byte
		putConnRecord(rec[:], c)
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// putConnRecord encodes one Conn into the 41-byte fixed layout; shared
// by the batch writer and the streaming ConnEncoder.
func putConnRecord(rec []byte, c Conn) {
	binary.LittleEndian.PutUint64(rec[0:], math.Float64bits(c.Start))
	binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(c.Duration))
	rec[16] = byte(c.Proto)
	binary.LittleEndian.PutUint64(rec[17:], uint64(c.BytesOrig))
	binary.LittleEndian.PutUint64(rec[25:], uint64(c.BytesResp))
	binary.LittleEndian.PutUint64(rec[33:], uint64(c.SessionID))
}

// ReadConnTraceBinary decodes a binary connection trace in strict
// mode: a truncated record stream aborts the decode.
func ReadConnTraceBinary(r io.Reader) (*ConnTrace, error) {
	t, _, err := ReadConnTraceBinaryWith(r, DecodeOptions{})
	return t, err
}

// ReadConnTraceBinaryWith decodes a binary connection trace under the
// given options. In lenient mode a stream that ends before the
// header's record count is satisfied yields the records that did
// decode, with the shortfall accounted in DecodeStats; header errors
// abort in both modes. It materializes NewConnBinaryScanner's records.
func ReadConnTraceBinaryWith(r io.Reader, opts DecodeOptions) (*ConnTrace, DecodeStats, error) {
	hdr, conns, stats, err := readAll(&NewConnBinaryScanner(r, opts).scanner)
	if err != nil {
		return nil, stats, err
	}
	return &ConnTrace{Name: hdr.Name, Horizon: hdr.Horizon, Conns: conns}, stats, nil
}

// connRecordLayout is the fixed-width binary encoding of one Conn.
var connRecordLayout = binaryRecord[Conn]{size: 41, decode: func(rec []byte) Conn {
	return Conn{
		Start:     math.Float64frombits(binary.LittleEndian.Uint64(rec[0:])),
		Duration:  math.Float64frombits(binary.LittleEndian.Uint64(rec[8:])),
		Proto:     Protocol(rec[16]),
		BytesOrig: int64(binary.LittleEndian.Uint64(rec[17:])),
		BytesResp: int64(binary.LittleEndian.Uint64(rec[25:])),
		SessionID: int64(binary.LittleEndian.Uint64(rec[33:])),
	}
}}

// WritePacketTraceBinary encodes a packet trace in the binary format.
func WritePacketTraceBinary(w io.Writer, t *PacketTrace) error {
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, packetMagic, t.Name, t.Horizon, uint64(len(t.Packets))); err != nil {
		return err
	}
	for _, p := range t.Packets {
		var rec [21]byte
		putPacketRecord(rec[:], p)
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// putPacketRecord encodes one Packet into the 21-byte fixed layout;
// shared by the batch writer and the streaming PacketEncoder.
func putPacketRecord(rec []byte, p Packet) {
	binary.LittleEndian.PutUint64(rec[0:], math.Float64bits(p.Time))
	binary.LittleEndian.PutUint32(rec[8:], uint32(p.Size))
	rec[12] = byte(p.Proto)
	binary.LittleEndian.PutUint64(rec[13:], uint64(p.ConnID))
}

// ReadPacketTraceBinary decodes a binary packet trace in strict mode:
// a truncated record stream aborts the decode.
func ReadPacketTraceBinary(r io.Reader) (*PacketTrace, error) {
	t, _, err := ReadPacketTraceBinaryWith(r, DecodeOptions{})
	return t, err
}

// ReadPacketTraceBinaryWith decodes a binary packet trace under the
// given options; see ReadConnTraceBinaryWith for the lenient
// contract.
func ReadPacketTraceBinaryWith(r io.Reader, opts DecodeOptions) (*PacketTrace, DecodeStats, error) {
	hdr, pkts, stats, err := readAll(&NewPacketBinaryScanner(r, opts).scanner)
	if err != nil {
		return nil, stats, err
	}
	return &PacketTrace{Name: hdr.Name, Horizon: hdr.Horizon, Packets: pkts}, stats, nil
}

// packetRecordLayout is the fixed-width binary encoding of one Packet.
var packetRecordLayout = binaryRecord[Packet]{size: 21, decode: func(rec []byte) Packet {
	return Packet{
		Time:   math.Float64frombits(binary.LittleEndian.Uint64(rec[0:])),
		Size:   int(binary.LittleEndian.Uint32(rec[8:])),
		Proto:  Protocol(rec[12]),
		ConnID: int64(binary.LittleEndian.Uint64(rec[13:])),
	}
}}

func writeHeader(w io.Writer, magic [4]byte, name string, horizon float64, count uint64) error {
	if len(name) > math.MaxUint16 {
		return fmt.Errorf("trace: name too long (%d bytes)", len(name))
	}
	if _, err := w.Write(magic[:]); err != nil {
		return err
	}
	var buf [8]byte
	binary.LittleEndian.PutUint16(buf[:2], uint16(len(name)))
	if _, err := w.Write(buf[:2]); err != nil {
		return err
	}
	if _, err := io.WriteString(w, name); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(horizon))
	if _, err := w.Write(buf[:]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(buf[:], count)
	_, err := w.Write(buf[:])
	return err
}

func readHeaderWith(r io.Reader, magic [4]byte, opts DecodeOptions) (name string, horizon float64, count uint64, pipeline string, err error) {
	var m [4]byte
	if _, err = io.ReadFull(r, m[:]); err != nil {
		return "", 0, 0, "", fmt.Errorf("trace: reading magic: %w", err)
	}
	if m != magic {
		return "", 0, 0, "", fmt.Errorf("trace: bad magic %q (want %q)", m[:], magic[:])
	}
	var lenBuf [2]byte
	if _, err = io.ReadFull(r, lenBuf[:]); err != nil {
		return "", 0, 0, "", err
	}
	nameBytes := make([]byte, binary.LittleEndian.Uint16(lenBuf[:]))
	if _, err = io.ReadFull(r, nameBytes); err != nil {
		return "", 0, 0, "", err
	}
	var buf [8]byte
	if _, err = io.ReadFull(r, buf[:]); err != nil {
		return "", 0, 0, "", err
	}
	horizon = math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
	if _, err = io.ReadFull(r, buf[:]); err != nil {
		return "", 0, 0, "", err
	}
	count = binary.LittleEndian.Uint64(buf[:])
	if count == streamedPipelineCount {
		if pipeline, err = readPipelineBlock(r); err != nil {
			return "", 0, 0, "", err
		}
		count = StreamedCount
	}
	if count != StreamedCount && count > uint64(opts.MaxRecords) {
		return "", 0, 0, "", fmt.Errorf("trace: implausible record count %d (limit %d)", count, opts.MaxRecords)
	}
	return string(nameBytes), horizon, count, pipeline, nil
}
