package store

import (
	"bytes"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"unsafe"

	"parj/internal/rdf"
)

// Load block sizes: a block is cut at its last newline once it holds
// minBlock bytes, and the next one has room for twice as many, up to
// maxBlock, which bounds the memory a block in flight holds. The first
// block grows from firstBlock, so a small document costs what it holds,
// and a document of up to minBlock bytes is one block, parsed where it is
// read, with no goroutine. A line longer than a block grows that block.
// Tests shrink minBlock and maxBlock.
var minBlock, maxBlock = 256 << 10, 1 << 20

const firstBlock = 4 << 10

// tripleBlock is how many parsed triples LoadTriples encodes per block.
const tripleBlock = 4096

// addBlock encodes a run of triples in input order — so holds each
// triple's subject and object, p its predicate — with one EncodeAll per
// dictionary, and buffers them. A novel term gets the next ID where it
// first occurs, so IDs follow the input order; the dictionaries copy only
// novel terms, so nothing of so or p is kept.
func (b *Builder) addBlock(so, p []string) {
	ids := slices.Grow(b.ids[:0], len(so)+len(p))[:len(so)+len(p)]
	b.resources.EncodeAll(so, ids)
	pids := ids[len(so):]
	b.predicates.EncodeAll(p, pids)
	for i, pid := range pids {
		b.AddEncoded(ids[2*i], pid, ids[2*i+1])
	}
	b.ids = ids
}

// LoadTriples builds a Store directly from parsed triples.
func LoadTriples(triples []rdf.Triple, opts BuildOptions) *Store {
	b := NewBuilder()
	var so, p []string
	for i := 0; i < len(triples); i += tripleBlock {
		so, p = so[:0], p[:0]
		for _, t := range triples[i:min(i+tripleBlock, len(triples))] {
			so = append(so, t.S, t.O)
			p = append(p, t.P)
		}
		b.addBlock(so, p)
	}
	return b.Build(opts)
}

// block is one run of whole lines of an N-Triples document and, once
// parsed, its triples as addBlock takes them.
type block struct {
	data  []byte
	so, p []string
	lines int   // lines in data
	err   error // a parse error (lines numbered from data's first) or the input's error
	done  chan struct{}
}

// parse cuts the block's triples out of its data, unless it carries the
// input's error. The terms alias data, which nothing writes once it is cut.
func (blk *block) parse() {
	if blk.err != nil {
		return
	}
	text := unsafe.String(unsafe.SliceData(blk.data), len(blk.data))
	n := bytes.Count(blk.data, []byte{'\n'}) + 1
	blk.so, blk.p = make([]string, 0, 2*n), make([]string, 0, n)
	blk.lines, blk.err = rdf.ParseLines(text, func(t rdf.Triple) {
		blk.so = append(blk.so, t.S, t.O)
		blk.p = append(blk.p, t.P)
	})
}

// blockReader cuts its input into blocks that end at a newline (the last
// one at the end of input).
type blockReader struct {
	r     io.Reader
	size  int    // capacity of the next block
	carry []byte // bytes read past the previous block's last newline
	err   error  // sticky: io.EOF once the input is consumed
}

// next returns the next block, or io.EOF after the last one, or the
// input's error.
func (br *blockReader) next() ([]byte, error) {
	if br.err != nil {
		return nil, br.err
	}
	buf := append(make([]byte, 0, max(br.size, 2*len(br.carry))), br.carry...)
	br.carry = nil
	for br.err == nil {
		if len(buf) == cap(buf) {
			if i := bytes.LastIndexByte(buf, '\n'); i >= 0 && len(buf) >= minBlock {
				br.carry = buf[i+1:]
				br.size = min(2*len(buf), maxBlock)
				return buf[:i+1], nil
			}
			buf = slices.Grow(buf, len(buf))
		}
		n, err := br.r.Read(buf[len(buf):cap(buf)])
		buf, br.err = buf[:len(buf)+n], err
	}
	if br.err != io.EOF {
		return nil, br.err
	}
	if len(buf) == 0 {
		return nil, io.EOF
	}
	return buf, nil
}

// LoadNTriples loads an N-Triples document in a pipeline (paper §3: encode
// every term, then build both replicas of every predicate):
//
//   - read: this function's reader goroutine cuts the input into blocks of
//     whole lines;
//   - parse: up to opts.Parallelism goroutines (0 means GOMAXPROCS) parse
//     blocks, each into terms that are views of its block;
//   - encode: the calling goroutine takes the parsed blocks in input order
//     and encodes each with addBlock, so IDs follow first occurrence in the
//     input exactly as a sequential load assigns them;
//   - build: Build sorts and packs the predicates in parallel.
//
// A document that fits in the first block is parsed and encoded without a
// goroutine. The error is the input's, or the first *rdf.ParseError in
// input order, the one rdf.Reader returns; every goroutine has exited when
// LoadNTriples returns.
func LoadNTriples(r io.Reader, opts BuildOptions) (*Store, error) {
	b := NewBuilder()
	br := &blockReader{r: r, size: min(firstBlock, minBlock)}
	data, err := br.next()
	if err != nil && err != io.EOF {
		return nil, err
	}
	if br.err == io.EOF {
		blk := &block{data: data}
		if blk.parse(); blk.err != nil {
			return nil, blk.err
		}
		b.addBlock(blk.so, blk.p)
		return b.Build(opts), nil
	}

	parsers := opts.Parallelism
	if parsers <= 0 {
		parsers = runtime.GOMAXPROCS(0)
	}
	quit := make(chan struct{})
	// order holds the blocks in input order, parsed or not. Its room lets
	// every parser finish a block while the encoder works through as many,
	// and bounds the blocks in flight.
	order := make(chan *block, 2*parsers)
	jobs := make(chan *block)
	var wg sync.WaitGroup
	wg.Add(parsers + 1)
	for range parsers {
		go func() {
			defer wg.Done()
			for blk := range jobs {
				blk.parse()
				close(blk.done)
			}
		}()
	}
	go func() {
		defer wg.Done()
		defer close(order)
		defer close(jobs)
		for data, err := data, error(nil); err != io.EOF; data, err = br.next() {
			blk := &block{data: data, err: err, done: make(chan struct{})}
			select {
			case order <- blk:
			case <-quit:
				return
			}
			select {
			case jobs <- blk:
			case <-quit:
				return
			}
			if err != nil {
				return
			}
		}
	}()

	line := 0 // lines before the block at hand
	for blk := range order {
		if <-blk.done; blk.err != nil {
			if pe, ok := blk.err.(*rdf.ParseError); ok {
				pe.Line += line
			}
			err = blk.err
			break
		}
		b.addBlock(blk.so, blk.p)
		line += blk.lines
	}
	close(quit)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	return b.Build(opts), nil
}

// LoadFile loads a file by name: a ".snapshot" file with LoadSnapshot (opts
// do not apply: a snapshot keeps the tables it was saved with), anything
// else as N-Triples with LoadNTriples.
func LoadFile(path string, opts BuildOptions) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".snapshot") {
		return LoadSnapshot(f)
	}
	return LoadNTriples(f, opts)
}
