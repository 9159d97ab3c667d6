package relstore

import (
	"sync"
	"time"

	"msql/internal/schema"
)

// LockMode is the strength of a table lock.
type LockMode uint8

// Lock modes: shared for readers, exclusive for writers and DDL.
const (
	LockShared LockMode = iota
	LockExclusive
)

func (m LockMode) String() string {
	if m == LockShared {
		return "S"
	}
	return "X"
}

// lockManager grants table-granularity S/X locks to transactions, waiting
// up to a deadline on conflict. Timeouts stand in for local deadlock
// detection, one of the abort causes the paper lists for subqueries.
type lockManager struct {
	mu    sync.Mutex
	locks map[string]*entityLock
}

func newLockManager() *lockManager {
	return &lockManager{locks: make(map[string]*entityLock)}
}

type entityLock struct {
	mu      sync.Mutex
	cond    *sync.Cond
	holders map[int64]LockMode
}

func (lm *lockManager) get(key string) *entityLock {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	l, ok := lm.locks[key]
	if !ok {
		l = &entityLock{holders: make(map[int64]LockMode)}
		l.cond = sync.NewCond(&l.mu)
		lm.locks[key] = l
	}
	return l
}

// acquire grants mode on key to tx, waiting up to timeout. A transaction
// already holding the key upgrades in place when it is the sole holder.
func (lm *lockManager) acquire(txID int64, key string, mode LockMode, timeout time.Duration) error {
	l := lm.get(key)
	l.mu.Lock()
	defer l.mu.Unlock()
	deadline := time.Now().Add(timeout)
	for !l.compatible(txID, mode) {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return schema.ErrLockTimeout
		}
		timer := time.AfterFunc(remaining, l.cond.Broadcast)
		l.cond.Wait()
		timer.Stop()
	}
	if cur, ok := l.holders[txID]; !ok || mode == LockExclusive && cur == LockShared {
		l.holders[txID] = mode
	}
	return nil
}

// compatible reports whether tx may take mode given current holders.
// Callers must hold l.mu.
func (l *entityLock) compatible(txID int64, mode LockMode) bool {
	for id, held := range l.holders {
		if id == txID {
			continue
		}
		if mode == LockExclusive || held == LockExclusive {
			return false
		}
	}
	return true
}

// releaseAll drops every lock tx holds.
func (lm *lockManager) releaseAll(txID int64) {
	lm.mu.Lock()
	keys := make([]*entityLock, 0, len(lm.locks))
	for _, l := range lm.locks {
		keys = append(keys, l)
	}
	lm.mu.Unlock()
	for _, l := range keys {
		l.mu.Lock()
		if _, ok := l.holders[txID]; ok {
			delete(l.holders, txID)
			l.cond.Broadcast()
		}
		l.mu.Unlock()
	}
}
