package trace

import (
	"bufio"
	"io"
	"strconv"
)

// Streaming encoders. A live source like cmd/wanload knows neither
// the length of its trace nor when it ends: it emits records as
// simulated users produce them, for as long as it runs. The encoders
// below write the header immediately (binary headers carry the
// StreamedCount sentinel) and then append one record per Write call,
// producing output the scanners decode. They hold each wire format's
// only formatter: the batch writers (WriteConnTrace, WritePacketTrace)
// are writeAll over an encoder whose binary header carries the record
// count instead of the sentinel.
//
// Encoders are not safe for concurrent use; errors are sticky.

// EncoderOptions carries the optional stream framing a live producer
// can stamp beyond the basic header.
type EncoderOptions struct {
	// PipelineID, when non-empty, is propagated through the trace
	// framing ("#pipeline <id>" after the text header; a block after
	// the binary header, flagged by its count field) so every
	// downstream consumer can attribute watermarks and freshness to
	// this pipeline.
	PipelineID string
}

// ConnEncoder appends connection records to a stream, one Write at a
// time.
type ConnEncoder struct {
	enc encoder
}

// NewConnEncoder writes a connection-trace header to w and returns an
// encoder for its records. With binary set the WCT1 framing is used,
// with the count field set to StreamedCount.
func NewConnEncoder(w io.Writer, name string, horizon float64, binary bool) (*ConnEncoder, error) {
	return NewConnEncoderWith(w, name, horizon, binary, EncoderOptions{})
}

// NewConnEncoderWith is NewConnEncoder plus framing options.
func NewConnEncoderWith(w io.Writer, name string, horizon float64, binary bool, opts EncoderOptions) (*ConnEncoder, error) {
	e := &ConnEncoder{}
	if err := e.enc.start(w, connFormat.text, connFormat.magic, name, horizon, binary, StreamedCount, opts); err != nil {
		return nil, err
	}
	return e, nil
}

// Write appends one connection record.
func (e *ConnEncoder) Write(c Conn) error {
	if e.enc.err != nil {
		return e.enc.err
	}
	b := e.enc.scratch[:0]
	if e.enc.binary {
		b = b[:connRecordSize]
		putConnRecord(b, c)
	} else {
		b = strconv.AppendFloat(b, c.Start, 'g', -1, 64)
		b = append(b, ' ')
		b = strconv.AppendFloat(b, c.Duration, 'g', -1, 64)
		b = append(b, ' ')
		b = append(b, c.Proto.String()...)
		b = append(b, ' ')
		b = strconv.AppendInt(b, c.BytesOrig, 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, c.BytesResp, 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, c.SessionID, 10)
		b = append(b, '\n')
	}
	return e.enc.emit(b)
}

// Flush pushes buffered records to the underlying writer.
func (e *ConnEncoder) Flush() error { return e.enc.flush() }

// Count reports how many records have been written.
func (e *ConnEncoder) Count() int64 { return e.enc.count }

// PacketEncoder appends packet records to a stream, one Write at a
// time.
type PacketEncoder struct {
	enc encoder
}

// NewPacketEncoder writes a packet-trace header to w and returns an
// encoder for its records; see NewConnEncoder.
func NewPacketEncoder(w io.Writer, name string, horizon float64, binary bool) (*PacketEncoder, error) {
	return NewPacketEncoderWith(w, name, horizon, binary, EncoderOptions{})
}

// NewPacketEncoderWith is NewPacketEncoder plus framing options.
func NewPacketEncoderWith(w io.Writer, name string, horizon float64, binary bool, opts EncoderOptions) (*PacketEncoder, error) {
	e := &PacketEncoder{}
	if err := e.enc.start(w, packetFormat.text, packetFormat.magic, name, horizon, binary, StreamedCount, opts); err != nil {
		return nil, err
	}
	return e, nil
}

// Write appends one packet record.
func (e *PacketEncoder) Write(p Packet) error {
	if e.enc.err != nil {
		return e.enc.err
	}
	b := e.enc.scratch[:0]
	if e.enc.binary {
		b = b[:packetRecordSize]
		putPacketRecord(b, p)
	} else {
		b = strconv.AppendFloat(b, p.Time, 'g', -1, 64)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(p.Size), 10)
		b = append(b, ' ')
		b = append(b, p.Proto.String()...)
		b = append(b, ' ')
		b = strconv.AppendInt(b, p.ConnID, 10)
		b = append(b, '\n')
	}
	return e.enc.emit(b)
}

// Flush pushes buffered records to the underlying writer.
func (e *PacketEncoder) Flush() error { return e.enc.flush() }

// Count reports how many records have been written.
func (e *PacketEncoder) Count() int64 { return e.enc.count }

// writeAll writes every record through an encoder and flushes it.
func writeAll[T any](enc interface {
	Write(T) error
	Flush() error
}, recs []T) error {
	for _, r := range recs {
		if err := enc.Write(r); err != nil {
			return err
		}
	}
	return enc.Flush()
}

// encoder holds the shared header/buffer/error state. scratch is
// sized for the longest possible text record (two shortest-form
// floats, a protocol name, three int64s and separators), so the hot
// path never allocates.
type encoder struct {
	bw      *bufio.Writer
	binary  bool
	count   int64
	err     error
	scratch [128]byte
}

// start writes the header. count is the binary header's record count:
// StreamedCount for a stream, the record count for a batch write. A
// pipeline ID turns StreamedCount into the sentinel that announces the
// pipeline block.
func (e *encoder) start(w io.Writer, textMagic string, magic [4]byte, name string, horizon float64, binary bool, count uint64, opts EncoderOptions) error {
	e.bw = bufio.NewWriter(w)
	e.binary = binary
	if binary {
		if opts.PipelineID != "" {
			count = streamedPipelineCount
		}
		if err := writeHeader(e.bw, magic, name, horizon, count); err != nil {
			return err
		}
		if opts.PipelineID != "" {
			return writePipelineBlock(e.bw, opts.PipelineID)
		}
		return nil
	}
	b := append(e.scratch[:0], textMagic...)
	b = append(b, ' ')
	b = append(b, nameField(name)...)
	b = append(b, ' ')
	b = strconv.AppendFloat(b, horizon, 'g', -1, 64)
	b = append(b, '\n')
	if opts.PipelineID != "" {
		b = append(b, pipelineComment...)
		b = append(b, opts.PipelineID...)
		b = append(b, '\n')
	}
	_, err := e.bw.Write(b)
	return err
}

// emit writes one encoded record, counting it and making any error
// sticky.
func (e *encoder) emit(b []byte) error {
	if _, err := e.bw.Write(b); err != nil {
		e.err = err
		return err
	}
	e.count++
	return nil
}

func (e *encoder) flush() error {
	if e.err != nil {
		return e.err
	}
	if err := e.bw.Flush(); err != nil {
		e.err = err
		return err
	}
	return nil
}
