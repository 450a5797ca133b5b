package graph

import (
	"bufio"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// maxLine bounds a text line: a line of maxLine bytes or more, before its
// newline, fails with bufio.ErrTooLong.
const maxLine = 1 << 20

// maxEdgeHint caps the edges a header's count may preallocate. The count is
// a hint, not an allocation: a few bytes declaring billions of edges get a
// slice that grows with the edges actually read.
const maxEdgeHint = 1 << 17

// maxFields is the most fields any record has ("e <u> <v>").
const maxFields = 3

// lineDecoder walks a text edge list line by line in place, in the window
// of the bufio.Reader's buffer that has been read but not decoded: one pass
// over a line's bytes finds its end, its fields and the value of each field
// that is a plain number, without allocating. Lines, their numbers, their
// fields and the errors that end the input are exactly those of a
// bufio.Scanner with a maxLine buffer, strings.TrimSpace and
// strings.Fields.
type lineDecoder struct {
	br   *bufio.Reader
	win  []byte // the buffered bytes; win[pos:] is not decoded yet
	pos  int
	rerr error  // the error that ended the reads, io.EOF included
	line int    // number of the current line, from 1
	raw  []byte // the current line, without its newline
	n    int    // field count of raw
	// span holds the bounds in raw of the first maxFields fields, and num
	// the value of each that is at most nine ASCII digits, or -1.
	span [maxFields][2]int
	num  [maxFields]int32
	done bool
	err  error // the read error that ended the input; nil at EOF
}

func newLineDecoder(r io.Reader) *lineDecoder {
	if _, ok := r.(*bufio.Reader); ok {
		// NewReaderSize would reuse a caller's larger buffer and lift the
		// line limit; hiding the type gets a buffer of exactly maxLine.
		r = struct{ io.Reader }{r}
	}
	return &lineDecoder{br: bufio.NewReaderSize(r, maxLine)}
}

// next advances to the next line, reporting false at the end of the input.
// A last line without a newline still counts, even when a read error cut
// it short; the error is left in d.err.
func (d *lineDecoder) next() bool {
	for !d.done {
		end, found := d.split()
		switch {
		case found:
		case d.rerr != nil:
			d.done = true
			if d.rerr != io.EOF {
				d.err = d.rerr
			}
			if end == d.pos {
				return false
			}
		case d.pos == 0 && len(d.win) == d.br.Size():
			// A full window without a newline: the line is too long, unless
			// the read that filled the window also ended the input, which
			// ReadSlice reports first, as the Scanner did. It consumes the
			// window, whose bytes stay in place for the last line.
			if _, err := d.br.ReadSlice('\n'); err != bufio.ErrBufferFull {
				d.rerr = err
				continue
			}
			d.done, d.err = true, bufio.ErrTooLong
			return false
		default:
			d.fill()
			continue
		}
		d.line++
		d.raw = d.win[d.pos:end]
		d.pos = end + 1
		return true
	}
	return false
}

// fill drops the decoded bytes from the buffer and reads once more.
func (d *lineDecoder) fill() {
	d.br.Discard(d.pos) // cannot fail: the window is buffered
	d.pos = 0
	if _, err := d.br.Peek(d.br.Buffered() + 1); err != nil {
		d.rerr = err
	}
	d.win, _ = d.br.Peek(d.br.Buffered())
}

// split finds the fields of the line at win[pos:], up to its newline or
// the window's end, and returns where the line ends and whether a newline
// ends it. Bytes that are not white space are stepped over one at a time:
// a UTF-8 continuation byte never starts a white-space rune, and no
// multi-byte rune contains a newline, so the fields are those
// strings.Fields finds in the line.
func (d *lineDecoder) split() (end int, found bool) {
	b, i, n := d.win, d.pos, 0
	for i < len(b) && b[i] != '\n' {
		if w := spaceWidth(b, i); w > 0 {
			i += w
			continue
		}
		start, v := i, int32(0)
		for ; i < len(b); i++ {
			if c := b[i] - '0'; c <= 9 {
				v = v*10 + int32(c)
				continue
			}
			if spaceWidth(b, i) > 0 {
				break
			}
			v = -1
		}
		if n < maxFields {
			if v < 0 || i-start > 9 {
				v = -1
			}
			d.span[n] = [2]int{start - d.pos, i - d.pos}
			d.num[n] = v
		}
		n++
	}
	d.n = n
	return i, i < len(b)
}

// field returns field k of the current line, k < min(d.n, maxFields).
func (d *lineDecoder) field(k int) []byte {
	return d.raw[d.span[k][0]:d.span[k][1]]
}

// int32 parses field k as strconv.ParseInt(field, 10, 32) does, errors
// included. Plain numbers come from split; a sign, a longer number or junk
// goes through strconv.
func (d *lineDecoder) int32(k int) (int32, error) {
	if v := d.num[k]; v >= 0 {
		return v, nil
	}
	x, err := strconv.ParseInt(string(d.field(k)), 10, 32)
	return int32(x), err
}

// text returns the current line with its surrounding white space trimmed,
// for headers and error messages.
func (d *lineDecoder) text() string {
	return strings.TrimSpace(string(d.raw))
}

// Byte classes for spaceWidth.
const (
	notSpace = iota
	asciiSpace
	multiByte // 0x80 and up: part of a multi-byte rune, or invalid
)

var byteClass = func() (c [256]uint8) {
	for _, b := range "\t\n\v\f\r " {
		c[b] = asciiSpace
	}
	for b := utf8.RuneSelf; b < len(c); b++ {
		c[b] = multiByte
	}
	return c
}()

// spaceWidth returns the width of the white-space rune at b[i], or 0 when
// b[i] starts anything else (an invalid byte included). White space is
// what unicode.IsSpace accepts.
func spaceWidth(b []byte, i int) int {
	switch byteClass[b[i]] {
	case notSpace:
		return 0
	case asciiSpace:
		return 1
	}
	return unicodeSpaceWidth(b[i:])
}

// unicodeSpaceWidth is spaceWidth for a byte of 0x80 and up, kept out of
// line so that spaceWidth inlines into split's loops.
func unicodeSpaceWidth(b []byte) int {
	r, w := utf8.DecodeRune(b)
	if unicode.IsSpace(r) {
		return w
	}
	return 0
}
