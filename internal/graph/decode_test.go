package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// refReadLenient is the text reader as it was before the byte decoder: a
// bufio.Scanner, strings.TrimSpace and strings.Fields per line. It is the
// reference the decoder must match, errors included. Its one change: the
// header's edge count no longer preallocates the slice, which made a huge
// count panic or exhaust memory.
func refReadLenient(r io.Reader) (*EdgeList, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var g *EdgeList
	var declared int
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if g == nil {
			var n, m int
			if _, err := fmt.Sscanf(text, "p %d %d", &n, &m); err != nil {
				return nil, fmt.Errorf("graph: line %d: expected header %q, got %q", line, "p <n> <m>", text)
			}
			if n < 0 || m < 0 {
				return nil, fmt.Errorf("graph: line %d: negative sizes in header", line)
			}
			g = &EdgeList{N: int32(n)}
			declared = m
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("graph: line %d: expected %q, got %q", line, "<u> <v>", text)
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
		g.Edges = append(g.Edges, Edge{U: int32(u), V: int32(v)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("graph: empty input")
	}
	if len(g.Edges) != declared {
		return nil, fmt.Errorf("graph: header declares %d edges, found %d", declared, len(g.Edges))
	}
	return g, nil
}

// refReadDIMACS is the DIMACS reader as it was before the byte decoder.
func refReadDIMACS(r io.Reader) (*EdgeList, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var g *EdgeList
	var declared int
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == 'c' {
			continue
		}
		switch text[0] {
		case 'p':
			if g != nil {
				return nil, fmt.Errorf("graph: line %d: duplicate problem line", line)
			}
			var kind string
			var n, m int
			if _, err := fmt.Sscanf(text, "p %s %d %d", &kind, &n, &m); err != nil {
				return nil, fmt.Errorf("graph: line %d: bad problem line %q", line, text)
			}
			if kind != "edge" && kind != "col" {
				return nil, fmt.Errorf("graph: line %d: unsupported DIMACS kind %q", line, kind)
			}
			if n < 0 || m < 0 {
				return nil, fmt.Errorf("graph: line %d: negative sizes", line)
			}
			g = &EdgeList{N: int32(n)}
			declared = m
		case 'e':
			if g == nil {
				return nil, fmt.Errorf("graph: line %d: edge before problem line", line)
			}
			fields := strings.Fields(text)
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: line %d: expected %q", line, "e <u> <v>")
			}
			u, err := strconv.ParseInt(fields[1], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", line, err)
			}
			v, err := strconv.ParseInt(fields[2], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", line, err)
			}
			if u < 1 || v < 1 || u > int64(g.N) || v > int64(g.N) {
				return nil, fmt.Errorf("graph: line %d: endpoint out of range [1,%d]", line, g.N)
			}
			g.Edges = append(g.Edges, Edge{U: int32(u - 1), V: int32(v - 1)})
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record %q", line, text)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("graph: no problem line")
	}
	if len(g.Edges) != declared {
		return nil, fmt.Errorf("graph: problem line declares %d edges, found %d", declared, len(g.Edges))
	}
	return g, nil
}

// longLine is a text body whose only edge line is n bytes long before its
// newline, padded with spaces between the endpoints.
func longLine(n int) []byte {
	return []byte("p 3 1\n0" + strings.Repeat(" ", n-2) + "1\n")
}

// textSeeds are the text reader tests' inputs plus the shapes a byte
// decoder could get wrong: CRLF, tabs, trailing blanks, signs, leading
// zeros, int32 overflow, non-ASCII white space (U+00A0, U+0085, U+3000)
// and invalid UTF-8, a last line without a newline, and lines at and over
// the 1 MiB limit.
func textSeeds() [][]byte {
	rng := rand.New(rand.NewSource(6))
	var buf bytes.Buffer
	if err := Write(&buf, randomGraph(rng, 50, 120)); err != nil {
		panic(err)
	}
	seeds := [][]byte{buf.Bytes()}
	for _, s := range []string{
		"", "q 3 2\n0 1\n1 2\n", "p 3 2\n0 1\n", "p 3 1\n0 x\n", "p 3 1\n0 1 2\n",
		"p 3 1\n0 3\n", "p 3 1\n1 1\n", "# a comment\n\np 3 1\n# another\n0 2\n", "p 2 1\n0\n",
		"p 3 2\r\n0 1\r\n1 2\r\n", "p\t3\t2\n0\t1\n\t1 2\t\n", "p 3 2   \n0 1  \n1 2 \n   \n \t\n",
		"p +3 2\n+0 -1\n1 +2\n", "p -1 0\n", "p 3 -1\n", "p 3 1\n- 1\n", "p 3 1\n+ 1\n",
		"p 003 02\n000 0001\n01 2\n", "p 3 1\n0000000000001 2\n", "p 3 1\n2147483647 -2147483648\n",
		"p 3 1\n2147483648 1\n", "p 3 1\n-2147483649 0\n", "p 3 1\n99999999999999999999999 1\n",
		"p 4294967299 0\n", "p 3 2 trailing\n0 1\n1 2\n", "p 3 2x\n0 1\n1 2\n", "p 3_0 1\n0 1\n",
		"p 3 2\n0 1\n1\u00852\n", " p 3 1\u0085\n0 1\n", "p 3 1\n0　1　\n",
		"p 3 1\n0\xc21\n", "p 3 1\n0 1\xe2\x80\n", "p 3 1\n\xa0 0 1\n", "p 3 1\n0 1\n",
		"p 3 2\n0 1\n1 2", "p 3 1\n0 1", "p 3 1", "p 1 2000000000\n", "#p 3 1\np 3 0\n",
		"p 3 1\n0 1\n\x00\n", "p 3 1\n0 1\r",
	} {
		seeds = append(seeds, []byte(s))
	}
	return append(seeds, longLine(maxLine-1), longLine(maxLine))
}

// dimacsSeeds are textSeeds' counterparts in the DIMACS format.
func dimacsSeeds() [][]byte {
	rng := rand.New(rand.NewSource(1))
	var buf bytes.Buffer
	if err := WriteDIMACS(&buf, randomGraph(rng, 60, 150)); err != nil {
		panic(err)
	}
	seeds := [][]byte{buf.Bytes()}
	for _, s := range []string{
		"c a comment\np col 3 2\ne 1 2\ne 2 3\n", "e 1 2\n", "p edge 2 0\np edge 2 0\n",
		"p graph 3 1\ne 1 2\n", "p edge 3 2\ne 1 2\n", "p edge 3 1\ne 0 1\n", "p edge 3 1\ne 1 4\n",
		"p edge 3 1\nx 1 2\n", "p edge 3 1\ne 1\n", "",
		"p edge 3 2\r\ne 1 2\r\ne 2 3\r\n", "p\tedge\t3\t1\ne\t1\t2\n", "p edge 3 1  \n e 1 2 \n  \n",
		"p edge +3 1\ne +1 -2\n", "p edge 003 01\ne 0001 02\n", "p edge 3 1\ne 2147483648 1\n",
		"p edge 3 1\ne 1 -2147483649\n", "p edge 3 1\ne 1\u00852\n", "\u0085p edge 3 1\ne 1 2 \n",
		"p edge 3 1\nexyz 1 2\n", "p edge 3 1\ne 1 2 3\n", "p edge 3 1\ne 1 2", "p col 3 1 extra\ne 1 2\n",
		"p edge 1 2000000000\n", "cp edge 3 1\np edge 3 0\n", "p edge -1 0\n", "p\n", "p edge 3 1\ne 1 x\n",
	} {
		seeds = append(seeds, []byte(s))
	}
	long := func(n int) []byte { return []byte("p edge 3 1\ne 1" + strings.Repeat(" ", n-4) + "2\n") }
	return append(seeds, long(maxLine-1), long(maxLine))
}

var errCut = errors.New("connection reset")

// fuzzReader serves in, then, with readErr, fails the next read with
// errCut instead of returning io.EOF.
func fuzzReader(in []byte, readErr bool) io.Reader {
	if !readErr {
		return bytes.NewReader(in)
	}
	return io.MultiReader(bytes.NewReader(in), iotest.ErrReader(errCut))
}

// checkSameRead fails unless both reads returned the same EdgeList (N and
// edges in order) or errors with the same text.
func checkSameRead(t *testing.T, in []byte, read, ref func(io.Reader) (*EdgeList, error), readErr bool) {
	t.Helper()
	got, err := read(fuzzReader(in, readErr))
	want, wantErr := ref(fuzzReader(in, readErr))
	shown := in
	if len(shown) > 200 {
		shown = shown[:200]
	}
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("input %q (%d bytes, read error %v):\nerror %v\nwant  %v", shown, len(in), readErr, err, wantErr)
	}
	if err == nil {
		equalEdgeLists(t, fmt.Sprintf("input %q", shown), want, got)
	}
}

func FuzzReadText(f *testing.F) {
	for _, s := range textSeeds() {
		f.Add(s, false)
		f.Add(s, true)
	}
	f.Fuzz(func(t *testing.T, in []byte, readErr bool) {
		checkSameRead(t, in, ReadLenient, refReadLenient, readErr)
	})
}

func FuzzReadDIMACS(f *testing.F) {
	for _, s := range dimacsSeeds() {
		f.Add(s, false)
		f.Add(s, true)
	}
	f.Fuzz(func(t *testing.T, in []byte, readErr bool) {
		checkSameRead(t, in, ReadDIMACS, refReadDIMACS, readErr)
	})
}

// totalAlloc returns the bytes f allocates.
func totalAlloc(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// hugeCountAllocBound is what a few bytes declaring 2·10⁹ edges may cost:
// the reader's buffer plus a capped edge hint, never the declared edges
// (16 GB, which used to kill the process).
const hugeCountAllocBound = 4 << 20

func checkHugeCount(t *testing.T, read func() (*EdgeList, error), want string) {
	t.Helper()
	var err error
	if n := totalAlloc(func() { _, err = read() }); n > hugeCountAllocBound {
		t.Errorf("allocated %d bytes, want at most %d", n, hugeCountAllocBound)
	}
	if err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
}

func TestReadLenientHugeHeaderCount(t *testing.T) {
	checkHugeCount(t, func() (*EdgeList, error) {
		return ReadLenient(strings.NewReader("p 1 2000000000\n"))
	}, "graph: header declares 2000000000 edges, found 0")
}

func TestReadDIMACSHugeHeaderCount(t *testing.T) {
	checkHugeCount(t, func() (*EdgeList, error) {
		return ReadDIMACS(strings.NewReader("p edge 1 2000000000\n"))
	}, "graph: problem line declares 2000000000 edges, found 0")
}

func TestReadBinaryHugeHeaderCount(t *testing.T) {
	in := append([]byte(nil), binaryMagic[:]...)
	in = binary.LittleEndian.AppendUint32(in, 1)
	in = binary.LittleEndian.AppendUint32(in, 2_000_000_000)
	checkHugeCount(t, func() (*EdgeList, error) {
		return ReadBinaryLenient(bytes.NewReader(in))
	}, "graph: edge 0: EOF")
}

// TestReadTextAllocsDoNotGrowWithLines: below the edge hint, decoding
// 100,000 lines allocates no more objects than decoding 1,000. The slack
// covers fmt's pooled scan state, which Sscanf may or may not reuse.
func TestReadTextAllocsDoNotGrowWithLines(t *testing.T) {
	allocs := func(m int) float64 {
		var buf bytes.Buffer
		if err := Write(&buf, randomGraph(rand.New(rand.NewSource(3)), 20000, m)); err != nil {
			t.Fatal(err)
		}
		body := buf.Bytes()
		return testing.AllocsPerRun(5, func() {
			if _, err := ReadLenient(bytes.NewReader(body)); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(1000), allocs(100_000); large > small+4 {
		t.Fatalf("%v allocs for 1,000 lines, %v for 100,000", small, large)
	}
}

// BenchmarkReadText decodes the text body of a G(16000, 96000) graph, the
// size of one service-cold upload (about 1 MB).
func BenchmarkReadText(b *testing.B) {
	var buf bytes.Buffer
	if err := Write(&buf, randomGraph(rand.New(rand.NewSource(1)), 16000, 96000)); err != nil {
		b.Fatal(err)
	}
	body := buf.Bytes()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadLenient(bytes.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLineLimitIgnoresCallerBuffer: a caller's bufio.Reader with a bigger
// buffer must not lift the 1 MiB line limit.
func TestLineLimitIgnoresCallerBuffer(t *testing.T) {
	long := []byte("p 3 1\n0" + strings.Repeat(" ", maxLine) + "1\n")
	_, err := ReadLenient(bufio.NewReaderSize(bytes.NewReader(long), 4*maxLine))
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("error %v, want %v", err, bufio.ErrTooLong)
	}
}
