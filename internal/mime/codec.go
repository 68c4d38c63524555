package mime

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
)

// Wire format: RFC-822-style header block terminated by an empty line, then
// exactly Content-Length body bytes. Writers always emit Content-Length and
// Message-Id so readers can frame messages on a byte stream; this is the
// format the Communicator streamlet puts on the wireless link and the
// client's Message Distributor parses back (§3.4.1).

const maxHeaderBytes = 64 << 10

// maxBodyBytes bounds the Content-Length ReadMessage accepts. The body
// buffer is allocated before any body byte arrives, so an unchecked length
// lets one header line from a peer make the gateway allocate (or, past the
// address space, panic on) whatever it names. 64 MiB is far above the
// largest body the evaluation sends (400 KiB in Figure 7-3).
const maxBodyBytes = 64 << 20

// appendHeaders appends the canonical wire header block — every declared
// header, then Message-Id and Content-Length re-emitted canonically, then
// the terminating blank line — to buf.
func (m *Message) appendHeaders(buf []byte) []byte {
	for _, k := range m.keys {
		if k == HeaderContentLength || k == HeaderMessageID {
			continue // re-emitted canonically below
		}
		buf = append(buf, k...)
		buf = append(buf, ": "...)
		buf = append(buf, m.fields[k]...)
		buf = append(buf, "\r\n"...)
	}
	buf = append(buf, HeaderMessageID...)
	buf = append(buf, ": "...)
	buf = append(buf, m.ID...)
	buf = append(buf, "\r\n"...)
	buf = append(buf, HeaderContentLength...)
	buf = append(buf, ": "...)
	buf = strconv.AppendInt(buf, int64(m.Len()), 10)
	buf = append(buf, "\r\n\r\n"...)
	return buf
}

// headerBufPool recycles WriteTo's header scratch buffers so serializing to
// a stream costs no header-block allocation.
var headerBufPool sync.Pool // of *[]byte

// WriteTo serializes the message to w. It returns the number of bytes
// written. The header block goes out in a single Write. Chained bodies
// (chain.go) take the vectored path so the chain is never flattened.
func (m *Message) WriteTo(w io.Writer) (int64, error) {
	if m.chain != nil {
		return m.WriteToV(w)
	}
	bp, _ := headerBufPool.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	hdr := m.appendHeaders((*bp)[:0])
	n1, err := w.Write(hdr)
	*bp = hdr[:0]
	headerBufPool.Put(bp)
	if err != nil {
		return int64(n1), err
	}
	n2, err := w.Write(m.body)
	return int64(n1 + n2), err
}

// vecPool recycles WriteToV's gather lists so vectored serialization costs
// no per-message allocation.
var vecPool sync.Pool // of *[][]byte

// WriteToV serializes the message to w with a vectored (writev-style)
// gather list: one entry for the header block and one per body segment,
// handed to net.Buffers so a *net.TCPConn (or any buffersWriter) receives
// the whole message in a single writev and other writers get one Write per
// segment. Neither a chained nor a contiguous body is ever copied.
func (m *Message) WriteToV(w io.Writer) (int64, error) {
	bp, _ := headerBufPool.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	hdr := m.appendHeaders((*bp)[:0])
	vp, _ := vecPool.Get().(*[][]byte)
	if vp == nil {
		vp = new([][]byte)
	}
	vec := append((*vp)[:0], hdr)
	if m.chain != nil {
		for _, s := range m.chain.segs {
			if len(s) > 0 {
				vec = append(vec, s)
			}
		}
	} else if len(m.body) > 0 {
		vec = append(vec, m.body)
	}
	// vp is pooled, so aiming net.Buffers' pointer receiver at it (legal:
	// identical underlying types) keeps the call heap-allocation-free.
	*vp = vec
	n, err := (*net.Buffers)(vp).WriteTo(w)
	// net.Buffers consumed entries in place through vec's backing array;
	// clear any survivors (error paths) before pooling so no body memory is
	// pinned by the scratch.
	for i := range vec {
		vec[i] = nil
	}
	*vp = vec[:0]
	vecPool.Put(vp)
	*bp = hdr[:0]
	headerBufPool.Put(bp)
	return n, err
}

// Encode serializes the message to a byte slice (chain-aware, without
// flattening the source).
func (m *Message) Encode() []byte {
	buf := make([]byte, 0, m.Len()+256)
	buf = m.appendHeaders(buf)
	if m.chain != nil {
		for _, s := range m.chain.segs {
			buf = append(buf, s...)
		}
		return buf
	}
	return append(buf, m.body...)
}

// ReadMessage parses one wire-format message from r. It returns io.EOF when
// the stream ends cleanly before any byte of a new message, and
// io.ErrUnexpectedEOF when a message is truncated.
func ReadMessage(r *bufio.Reader) (*Message, error) {
	m := &Message{fields: make(map[string]string, 8)}
	headerBytes := 0
	first := true
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			if err == io.EOF && first && line == "" {
				return nil, io.EOF
			}
			if err == io.EOF {
				return nil, io.ErrUnexpectedEOF
			}
			return nil, err
		}
		first = false
		headerBytes += len(line)
		if headerBytes > maxHeaderBytes {
			return nil, fmt.Errorf("mime: header block exceeds %d bytes", maxHeaderBytes)
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			break // end of headers
		}
		colon := strings.IndexByte(line, ':')
		if colon <= 0 {
			return nil, fmt.Errorf("mime: malformed header line %q", line)
		}
		key := strings.TrimSpace(line[:colon])
		val := strings.TrimSpace(line[colon+1:])
		m.SetHeader(key, val)
	}

	n := parseContentLength(m.Header(HeaderContentLength))
	if n < 0 {
		return nil, fmt.Errorf("mime: missing or invalid Content-Length")
	}
	if n > maxBodyBytes {
		return nil, fmt.Errorf("mime: Content-Length %d exceeds %d bytes", n, maxBodyBytes)
	}
	m.ID = m.Header(HeaderMessageID)
	if m.ID == "" {
		m.ID = NewID()
	}
	m.DelHeader(HeaderContentLength)
	m.DelHeader(HeaderMessageID)

	// The body is drawn from the shared buffer pool; the coordination plane
	// may Recycle it once the message is provably dead (see bufpool.go).
	m.body = getBodyBuf(int(n))
	m.pooledBody = true
	if _, err := io.ReadFull(r, m.body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		m.Recycle()
		return nil, err
	}
	return m, nil
}

// readerPool recycles the codec's buffered readers: Decode sits on the
// per-hop path of header-parsing streamlets (the §7.2 redirector probe), and
// a fresh bufio.Reader costs a 4 KB buffer allocation per message.
var readerPool sync.Pool // of *bufio.Reader

// Decode parses a message from a byte slice.
func Decode(data []byte) (*Message, error) {
	br, _ := readerPool.Get().(*bufio.Reader)
	if br == nil {
		br = bufio.NewReader(nil)
	}
	br.Reset(bytes.NewReader(data))
	m, err := ReadMessage(br)
	br.Reset(nil) // drop the reference to data before pooling
	readerPool.Put(br)
	return m, err
}
