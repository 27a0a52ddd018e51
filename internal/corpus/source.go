package corpus

import (
	"context"
	"fmt"

	"ams/internal/oracle"
	"ams/internal/synth"
	"ams/internal/zoo"
)

// Source is the corpus's executor view: an oracle.Executor whose index
// space layers the corpus's items after an optional precomputed base
// store (the held-out test split), exactly as oracle.OnDemand layers
// ingested items — but item lifetimes are corpus-managed: admissions are
// journaled, memoized outputs are journaled as they land, and the serve
// layer's Begin/Commit/Abort calls drive refcounted eviction.
//
// Source also implements the serving layer's corpus contract
// (serve.Corpus), so a server constructed over it journals every item's
// completion without knowing the corpus's internals.
type Source struct {
	c    *Corpus
	base *oracle.Store
}

var _ oracle.Executor = (*Source)(nil)

// Source returns the corpus's executor view over an optional base store
// (which must share the corpus's zoo).
func (c *Corpus) Source(base *oracle.Store) *Source {
	if base != nil && base.Zoo != c.z {
		panic("corpus: base store built against a different zoo")
	}
	return &Source{c: c, base: base}
}

func (s *Source) baseLen() int {
	if s.base == nil {
		return 0
	}
	return s.base.NumItems()
}

// TryAdmit journals one scene into the corpus and returns its executor
// index. ErrFull signals the resident watermark.
func (s *Source) TryAdmit(scene synth.Scene, tag string) (int, error) {
	seq, err := s.c.TryAdmit(scene, tag)
	if err != nil {
		return 0, err
	}
	return s.baseLen() + seq, nil
}

// AdmitWait journals one scene, blocking on the resident watermark until
// an eviction frees a slot or ctx is cancelled.
func (s *Source) AdmitWait(ctx context.Context, scene synth.Scene, tag string) (int, error) {
	seq, err := s.c.AdmitWait(ctx, scene, tag)
	if err != nil {
		return 0, err
	}
	return s.baseLen() + seq, nil
}

// Index maps a corpus sequence number onto the executor's index space.
func (s *Source) Index(seq int) int { return s.baseLen() + seq }

// NumItems implements oracle.Executor.
func (s *Source) NumItems() int { return s.baseLen() + s.c.Len() }

// NumModels implements oracle.Executor.
func (s *Source) NumModels() int { return len(s.c.z.Models) }

// Model implements oracle.Executor.
func (s *Source) Model(m int) *zoo.Model { return s.c.z.Models[m] }

// Output implements oracle.Executor: precomputed for base items; for
// corpus items, memoized (journaled on first computation) — an evicted
// item re-executes the model, deterministically reproducing the evicted
// output.
func (s *Source) Output(i, m int) zoo.Output {
	if i < s.baseLen() {
		return s.base.Output(i, m)
	}
	return s.item(i).Output(m)
}

// Seed implements oracle.Executor.
func (s *Source) Seed(i int) uint64 {
	if i < s.baseLen() {
		return s.base.Seed(i)
	}
	return s.item(i).Scene().Seed
}

// Truth implements oracle.Executor: known for base items, never for
// corpus items (ingested production data has no ground truth).
func (s *Source) Truth(i int) *oracle.Truth {
	if i < s.baseLen() {
		return s.base.Truth(i)
	}
	s.item(i) // range check, matching OnDemand's panic behavior
	return nil
}

func (s *Source) item(i int) *oracle.ExternalItem {
	pos := i - s.baseLen()
	if pos < 0 || pos >= s.c.Len() {
		panic(fmt.Sprintf("corpus: item index %d out of range", i))
	}
	return s.c.Item(pos)
}

// BeginItem implements the serve layer's corpus contract: one schedule
// for the item is in flight. Base (test-split) items are not
// corpus-managed, so theirs is a no-op.
func (s *Source) BeginItem(i int) {
	if i >= s.baseLen() {
		s.c.Begin(i - s.baseLen())
	}
}

// CommitItem implements the serve contract: the item's schedule
// completed and its result is final — journal the commit and release the
// schedule's reference (evicting once no reader of the corpus holds it).
func (s *Source) CommitItem(i int, executed []int, scheduleMS float64) {
	if i >= s.baseLen() {
		// The sticky write error surfaces on the admission path; a
		// worker completing an item has nowhere to return it.
		_ = s.c.Commit(i-s.baseLen(), executed, scheduleMS)
	}
}

// AbortItem implements the serve contract: an admission that Begin'd but
// never reached a worker (queue full, server closed) releases its
// reference without a commit record.
func (s *Source) AbortItem(i int) {
	if i >= s.baseLen() {
		s.c.Abort(i - s.baseLen())
	}
}
