package service

import (
	"container/list"
	"crypto/sha256"
	"sync"

	"repro/internal/scenario"
)

// specMemo remembers the specs Submit has parsed, keyed by the exact
// bytes submitted, so a repeat submission — most of what the daemon
// serves — skips scenario.Parse and Spec.Hash. Only a successful parse
// is stored: a rejected body is parsed again, and answered with the
// same error, on every submission.
//
// The memo holds at most as many specs as the job history bound
// (Config.JobHistory), whose records already pin one spec each, and
// forgets the least recently submitted first. Its key is the SHA-256 of
// the body rather than the body itself, so padding a spec with
// whitespace cannot make the memo hold more than the spec it parsed.
//
// Jobs submitted with the same bytes share one *scenario.Spec. Nothing
// writes to a spec once it is parsed: scenario.RunModel and
// ResumeModel and Spec.Canonical only read it, and a sweep applies each
// case's coordinates to a copy (Spec.At).
type specMemo struct {
	mu    sync.Mutex
	bound int
	byKey map[[sha256.Size]byte]*list.Element
	lru   *list.List // of *memoEntry, most recently submitted first
}

type memoEntry struct {
	key  [sha256.Size]byte
	spec *scenario.Spec
	hash string
}

func newSpecMemo(bound int) *specMemo {
	return &specMemo{
		bound: bound,
		byKey: make(map[[sha256.Size]byte]*list.Element),
		lru:   list.New(),
	}
}

// parse returns the spec body encodes and its content address, from the
// memo when these exact bytes were parsed before. The parse itself runs
// off the memo's lock; two first submissions of the same bytes may both
// parse, and the first to finish is kept.
func (m *specMemo) parse(body []byte) (*scenario.Spec, string, error) {
	key := sha256.Sum256(body)
	m.mu.Lock()
	if el, ok := m.byKey[key]; ok {
		m.lru.MoveToFront(el)
		e := el.Value.(*memoEntry)
		m.mu.Unlock()
		return e.spec, e.hash, nil
	}
	m.mu.Unlock()

	sp, err := scenario.Parse(body)
	if err != nil {
		return nil, "", err
	}
	hash, err := sp.Hash()
	if err != nil {
		return nil, "", err
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.byKey[key]; ok {
		e := el.Value.(*memoEntry)
		return e.spec, e.hash, nil
	}
	m.byKey[key] = m.lru.PushFront(&memoEntry{key: key, spec: sp, hash: hash})
	if m.lru.Len() > m.bound {
		delete(m.byKey, m.lru.Remove(m.lru.Back()).(*memoEntry).key)
	}
	return sp, hash, nil
}
