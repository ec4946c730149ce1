package wal

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"sync"
	"testing"

	"clsm/internal/storage"
	"clsm/internal/syncutil"
)

func writeLog(t *testing.T, fs *storage.MemFS, name string, records [][]byte) {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f, false)
	for _, r := range records {
		if err := w.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func readAll(t *testing.T, fs *storage.MemFS, name string) [][]byte {
	t.Helper()
	src, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	r := NewReader(src)
	var out [][]byte
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, append([]byte(nil), rec...))
	}
}

func TestRoundTripSmallRecords(t *testing.T) {
	fs := storage.NewMemFS()
	recs := [][]byte{[]byte("one"), []byte("two"), []byte(""), []byte("four")}
	writeLog(t, fs, "l", recs)
	got := readAll(t, fs, "l")
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Errorf("record %d mismatch", i)
		}
	}
}

func TestRoundTripFragmented(t *testing.T) {
	fs := storage.NewMemFS()
	big := make([]byte, 3*BlockSize+123)
	for i := range big {
		big[i] = byte(i)
	}
	recs := [][]byte{[]byte("pre"), big, []byte("post")}
	writeLog(t, fs, "l", recs)
	got := readAll(t, fs, "l")
	if len(got) != 3 || !bytes.Equal(got[1], big) {
		t.Fatalf("fragmented record corrupted (got %d records)", len(got))
	}
}

func TestBlockBoundaryPadding(t *testing.T) {
	fs := storage.NewMemFS()
	// Record sized so the next header would not fit in the block tail.
	rec1 := make([]byte, BlockSize-headerSize-3) // leaves 3 < headerSize bytes
	rec2 := []byte("after-pad")
	writeLog(t, fs, "l", [][]byte{rec1, rec2})
	got := readAll(t, fs, "l")
	if len(got) != 2 || !bytes.Equal(got[1], rec2) {
		t.Fatal("record after block padding lost")
	}
}

func TestRoundTripQuickSizes(t *testing.T) {
	fs := storage.NewMemFS()
	rng := rand.New(rand.NewSource(11))
	var recs [][]byte
	for i := 0; i < 200; i++ {
		n := rng.Intn(3 * BlockSize)
		b := make([]byte, n)
		rng.Read(b)
		recs = append(recs, b)
	}
	writeLog(t, fs, "l", recs)
	got := readAll(t, fs, "l")
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Fatalf("record %d mismatch (len %d)", i, len(recs[i]))
		}
	}
}

// A crash-truncated tail must not be treated as corruption: recovery keeps
// the intact prefix.
func TestTruncatedTail(t *testing.T) {
	fs := storage.NewMemFS()
	recs := [][]byte{[]byte("alpha"), []byte("beta"), make([]byte, 2*BlockSize)}
	writeLog(t, fs, "l", recs)
	data, _ := fs.ReadFile("l")
	for cut := 1; cut < 40; cut += 7 {
		trunc := data[:len(data)-cut]
		fs.WriteFile("t", trunc)
		src, _ := fs.Open("t")
		r := NewReader(src)
		n := 0
		for {
			_, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("cut %d: unexpected error %v", cut, err)
			}
			n++
		}
		if n < 2 {
			t.Errorf("cut %d: intact prefix lost, only %d records", cut, n)
		}
		src.Close()
	}
}

// drainReader iterates src to the end and returns the record count, the
// terminal error (nil when iteration ended with io.EOF), and the reader for
// TornTail inspection.
func drainReader(src storage.RandomReader, strict bool) (n int, err error, r *Reader) {
	r = NewReader(src)
	r.StrictTail = strict
	for {
		_, err = r.Next()
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return n, err, r
		}
		n++
	}
}

// TestTailClassification pins the three-way distinction of log endings:
// clean EOF, torn tail (truncate and continue), and mid-file corruption
// (hard failure).
func TestTailClassification(t *testing.T) {
	fs := storage.NewMemFS()
	recs := [][]byte{[]byte("alpha"), []byte("beta"), bytes.Repeat([]byte("c"), 300)}
	writeLog(t, fs, "l", recs)
	data, _ := fs.ReadFile("l")

	cases := []struct {
		name     string
		mutate   func([]byte) []byte
		wantRecs int
		wantTorn bool
		wantErr  bool
	}{
		{"clean-eof", func(b []byte) []byte { return b }, 3, false, false},
		{"clean-eof-zero-padded", func(b []byte) []byte {
			return append(b, make([]byte, 11)...) // tail < headerSize, all zero
		}, 3, false, false},
		{"torn-last-byte", func(b []byte) []byte { return b[:len(b)-1] }, 2, true, false},
		{"torn-mid-fragment", func(b []byte) []byte { return b[:len(b)-100] }, 2, true, false},
		{"torn-partial-header", func(b []byte) []byte {
			return b[:len(b)-300-4] // 3 bytes of record 2's header remain
		}, 2, true, false},
		{"torn-bitflip-tail", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-5] ^= 0x40 // payload of the final record
			return c
		}, 2, true, false},
		{"corrupt-mid-file", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[headerSize+1] ^= 0x40 // payload of record 0 ...
			// ... followed by a full block so the damage is not in the
			// final block.
			return append(c, make([]byte, BlockSize)...)
		}, 0, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs.WriteFile("m", tc.mutate(data))
			src, _ := fs.Open("m")
			defer src.Close()
			n, err, r := drainReader(src, false)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("want ErrCorrupt, got nil after %d records", n)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if n != tc.wantRecs {
				t.Errorf("got %d records, want %d", n, tc.wantRecs)
			}
			if _, torn := r.TornTail(); torn != tc.wantTorn {
				t.Errorf("TornTail = %v, want %v", torn, tc.wantTorn)
			}
		})
	}
}

// TestStrictTail verifies the crash-harness negative-control switch: a torn
// tail that normal iteration truncates becomes a hard error.
func TestStrictTail(t *testing.T) {
	fs := storage.NewMemFS()
	writeLog(t, fs, "l", [][]byte{[]byte("alpha"), []byte("beta")})
	data, _ := fs.ReadFile("l")
	fs.WriteFile("t", data[:len(data)-2])

	src, _ := fs.Open("t")
	n, err, _ := drainReader(src, false)
	src.Close()
	if err != nil || n != 1 {
		t.Fatalf("lenient: got n=%d err=%v, want 1 record and truncation", n, err)
	}

	src, _ = fs.Open("t")
	n, err, _ = drainReader(src, true)
	src.Close()
	if err == nil {
		t.Fatalf("strict: torn tail accepted (%d records)", n)
	}
}

// TestTornTailOffset verifies the reported truncation offset delimits
// exactly the intact prefix.
func TestTornTailOffset(t *testing.T) {
	fs := storage.NewMemFS()
	recs := [][]byte{bytes.Repeat([]byte("x"), 50), bytes.Repeat([]byte("y"), 60)}
	writeLog(t, fs, "l", recs)
	data, _ := fs.ReadFile("l")
	fs.WriteFile("t", data[:len(data)-10])
	src, _ := fs.Open("t")
	defer src.Close()
	n, err, r := drainReader(src, false)
	if err != nil || n != 1 {
		t.Fatalf("got n=%d err=%v", n, err)
	}
	off, torn := r.TornTail()
	if !torn {
		t.Fatal("torn tail not flagged")
	}
	if want := int64(headerSize + 50); off != want {
		t.Errorf("truncation offset %d, want %d", off, want)
	}
}

func TestMidFileCorruption(t *testing.T) {
	fs := storage.NewMemFS()
	recs := [][]byte{bytes.Repeat([]byte("a"), 100), bytes.Repeat([]byte("b"), 100)}
	writeLog(t, fs, "l", recs)
	data, _ := fs.ReadFile("l")
	data[headerSize+10] ^= 0xff // flip a payload byte of record 0
	// Pad so the corrupt block is not the final partial block.
	data = append(data, make([]byte, BlockSize)...)
	fs.WriteFile("c", data)
	src, _ := fs.Open("c")
	r := NewReader(src)
	if _, err := r.Next(); err == nil {
		t.Fatal("corrupted record accepted")
	}
	src.Close()
}

// TestFrameCRCFormat pins the fragment checksum to its on-disk definition,
// CRC-32C over the type byte followed by the payload, for every type byte:
// the table-seeded frameCRC must produce exactly the bytes older logs hold.
func TestFrameCRCFormat(t *testing.T) {
	payloads := [][]byte{nil, []byte("x"), bytes.Repeat([]byte("payload"), 50)}
	for i := 0; i < 256; i++ {
		for _, p := range payloads {
			want := crc32.Checksum(append([]byte{byte(i)}, p...), castagnoli)
			if got := frameCRC(recordType(i), p); got != want {
				t.Fatalf("type %d, %d-byte payload: frameCRC = %#x, want %#x", i, len(p), got, want)
			}
		}
	}
}

func TestLoggerAsync(t *testing.T) {
	fs := storage.NewMemFS()
	f, _ := fs.Create("l")
	l := NewLogger(f, false)
	var want [][]byte
	for i := 0; i < 1000; i++ {
		rec := []byte(fmt.Sprintf("record-%04d", i))
		want = append(want, rec)
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := readAll(t, fs, "l")
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("record %d mismatch", i)
		}
	}
}

func TestLoggerSyncMode(t *testing.T) {
	fs := storage.NewMemFS()
	f, _ := fs.Create("l")
	l := NewLogger(f, true)
	if err := l.Append([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	// In sync mode the record must be on "disk" before Append returns.
	got := readAll(t, fs, "l")
	if len(got) != 1 || string(got[0]) != "durable" {
		t.Fatalf("sync append not durable: %q", got)
	}
	l.Close()
}

func TestLoggerConcurrentAppends(t *testing.T) {
	fs := storage.NewMemFS()
	f, _ := fs.Create("l")
	l := NewLogger(f, false)
	const workers = 8
	const per = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := readAll(t, fs, "l")
	if len(got) != workers*per {
		t.Fatalf("got %d records, want %d", len(got), workers*per)
	}
	// Per-producer order must be preserved (FIFO queue).
	idx := make([]int, workers)
	for _, rec := range got {
		var w, i int
		fmt.Sscanf(string(rec), "w%d-%d", &w, &i)
		if i != idx[w] {
			t.Fatalf("producer %d order violated: got %d want %d", w, i, idx[w])
		}
		idx[w]++
	}
}

func TestQueueFIFO(t *testing.T) {
	q := syncutil.NewQueue[int]()
	if _, ok := q.Dequeue(); ok {
		t.Fatal("empty queue dequeued")
	}
	for i := 0; i < 100; i++ {
		q.Enqueue(i)
	}
	if q.Len() != 100 {
		t.Fatalf("Len = %d", q.Len())
	}
	for i := 0; i < 100; i++ {
		v, ok := q.Dequeue()
		if !ok || v != i {
			t.Fatalf("Dequeue = %d,%v want %d", v, ok, i)
		}
	}
}

func TestQueueConcurrent(t *testing.T) {
	q := syncutil.NewQueue[int]()
	const producers = 4
	const per = 10000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q.Enqueue(p*per + i)
			}
		}(p)
	}
	seen := make(map[int]bool, producers*per)
	var consumed int
	var mu sync.Mutex
	var cwg sync.WaitGroup
	for c := 0; c < 4; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for {
				v, ok := q.Dequeue()
				if !ok {
					mu.Lock()
					done := consumed == producers*per
					mu.Unlock()
					if done {
						return
					}
					continue
				}
				mu.Lock()
				if seen[v] {
					t.Errorf("duplicate dequeue %d", v)
				}
				seen[v] = true
				consumed++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	cwg.Wait()
	if len(seen) != producers*per {
		t.Fatalf("consumed %d, want %d", len(seen), producers*per)
	}
}
