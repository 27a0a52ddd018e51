package corpus

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"ams/internal/zoo"
)

// A segmented corpus is one journal per shard under a shared directory:
//
//	dir/manifest        — segment count (so a reopen needs no flags)
//	dir/journal-0.log   — shard 0's write-ahead journal
//	dir/journal-1.log
//	...
//
// Each segment is an ordinary Corpus, one file that compaction rewrites
// in place: its writers never contend with another segment's, and crash
// replay opens all segments in parallel.

const (
	manifestName   = "manifest"
	manifestHeader = "ams-corpus-manifest v1"
)

// SegmentPath is the journal path of segment i under dir.
func SegmentPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("journal-%d.log", i))
}

// OpenDir opens (or creates) a directory of n journal segments. With
// n == 0 the count is read from the directory's manifest — the reopen
// path, where the caller should not need to remember the shard count.
// A count that contradicts an existing manifest is an error: segments
// cannot be re-partitioned in place. Options apply to each segment
// individually (MaxResident bounds residency per segment); bad ones are
// refused, as Open refuses them, before anything touches the disk.
// Segments are opened concurrently, so replay of a crashed
// multi-segment corpus fans out across journals.
func OpenDir(z *zoo.Zoo, dir string, n int, opts Options) ([]*Corpus, error) {
	if n < 0 {
		return nil, fmt.Errorf("corpus: negative segment count %d", n)
	}
	if err := opts.check(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("corpus: create segment directory: %w", err)
	}
	mpath := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(mpath)
	switch {
	case err == nil:
		have, perr := parseManifest(data)
		if perr != nil {
			return nil, fmt.Errorf("corpus: manifest %s: %w", mpath, perr)
		}
		if n == 0 {
			n = have
		}
		if n != have {
			return nil, fmt.Errorf("corpus: directory %s holds %d segments, asked to open %d", dir, have, n)
		}
	case os.IsNotExist(err):
		if n == 0 {
			n = 1
		}
		if werr := writeManifest(mpath, n); werr != nil {
			return nil, werr
		}
	default:
		return nil, fmt.Errorf("corpus: read manifest: %w", err)
	}

	segs := make([]*Corpus, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range segs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			segs[i], errs[i] = Open(z, SegmentPath(dir, i), opts)
		}(i)
	}
	wg.Wait()
	for i, e := range errs {
		if e != nil {
			for _, s := range segs {
				if s != nil {
					_ = s.Close()
				}
			}
			return nil, fmt.Errorf("corpus: segment %d: %w", i, e)
		}
	}
	return segs, nil
}

// manifestBody is the manifest of n segments: what writeManifest writes
// and the only form parseManifest accepts.
func manifestBody(n int) string {
	return manifestHeader + "\nsegments " + strconv.Itoa(n) + "\n"
}

// parseManifest reads the segment count of a manifest, refusing anything
// but manifestBody of a positive count: a damaged manifest must not
// silently reopen the wrong number of segments.
func parseManifest(data []byte) (int, error) {
	count, ok := strings.CutPrefix(string(data), manifestHeader+"\nsegments ")
	if !ok {
		return 0, fmt.Errorf("unrecognized manifest format")
	}
	n, err := strconv.Atoi(strings.TrimSuffix(count, "\n"))
	if err != nil || n <= 0 || string(data) != manifestBody(n) {
		return 0, fmt.Errorf("bad segment count line %q", "segments "+count)
	}
	return n, nil
}

// writeManifest installs the manifest durably: the tmp file is fsynced
// before the rename and the directory after it, so a power loss leaves
// either no manifest or a complete one.
func writeManifest(path string, n int) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err == nil {
		_, err = f.WriteString(manifestBody(n))
		err = errors.Join(err, f.Sync(), f.Close())
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err == nil {
		err = syncDir(filepath.Dir(path))
	}
	if err != nil {
		return fmt.Errorf("corpus: install manifest: %w", err)
	}
	return nil
}
