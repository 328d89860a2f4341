package serve

import (
	"fmt"
	"sort"
	"sync"

	"cognitivearm/internal/models"
)

// Registry holds the fleet's shared classifiers. Each key is built exactly
// once — by training or by deserialising a saved model — no matter how many
// sessions or goroutines ask for it, and the result is handed out read-only.
// This replaces the seed's train-per-deploy shape: a thousand sessions on
// one model cost one training run and one copy of the weights.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*regEntry
}

// regEntry resolves exactly once: the goroutine that creates the entry runs
// the build and closes done; everyone else waits on done. (A sync.Once here
// would let a concurrent Get win the Do and poison the entry before the
// builder runs.)
type regEntry struct {
	done chan struct{}
	clf  models.Classifier
	macs int64
	err  error
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: map[string]*regEntry{}}
}

// GetOrBuild returns the classifier for key, invoking build at most once per
// key across all callers (concurrent callers for the same key block until
// the first build finishes — singleflight semantics). build returns the
// classifier plus its per-inference MAC estimate for edge accounting.
func (r *Registry) GetOrBuild(key string, build func() (models.Classifier, int64, error)) (models.Classifier, int64, error) {
	r.mu.Lock()
	e, ok := r.entries[key]
	if !ok {
		e = &regEntry{done: make(chan struct{})}
		r.entries[key] = e
		r.mu.Unlock()
		e.clf, e.macs, e.err = build()
		if e.err != nil {
			// Leave the failed entry in place: retrying a deterministic
			// build would fail identically, and callers see the cause.
			e.err = fmt.Errorf("serve: build model %q: %w", key, e.err)
		}
		close(e.done)
		return e.clf, e.macs, e.err
	}
	r.mu.Unlock()
	<-e.done
	return e.clf, e.macs, e.err
}

// Resolved returns the successfully built classifiers and their MAC
// estimates. In-flight builds are skipped rather than waited for: the
// checkpoint path must never block behind a training run.
func (r *Registry) Resolved() (map[string]models.Classifier, map[string]int64) {
	r.mu.Lock()
	entries := make(map[string]*regEntry, len(r.entries))
	for k, e := range r.entries {
		entries[k] = e
	}
	r.mu.Unlock()
	clfs := make(map[string]models.Classifier)
	macs := make(map[string]int64)
	for k, e := range entries {
		select {
		case <-e.done:
			if e.err == nil {
				clfs[k] = e.clf
				macs[k] = e.macs
			}
		default:
		}
	}
	return clfs, macs
}

// Get returns the classifier for key, or ok=false when the key is unknown
// or its build failed. A concurrent in-flight GetOrBuild for the same key is
// waited for, so a successful Get never races the build.
func (r *Registry) Get(key string) (models.Classifier, int64, bool) {
	r.mu.Lock()
	e, ok := r.entries[key]
	r.mu.Unlock()
	if !ok {
		return nil, 0, false
	}
	<-e.done
	if e.err != nil {
		return nil, 0, false
	}
	return e.clf, e.macs, true
}

// Keys lists resolved and in-flight keys in sorted order.
func (r *Registry) Keys() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := make([]string, 0, len(r.entries))
	for k := range r.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
