package store

import (
	"errors"
	"sync"

	"speed/internal/enclave"
)

// Controlled deduplication (Section III-D): the keyless RCE scheme
// means any application that owns a computation can decrypt its stored
// result, but it does not restrict who may talk to the ResultStore at
// all. This file adds the "additional authorization mechanism" the
// paper calls for: per-application permissions checked once per
// message, keyed by the attested enclave measurement.

// Permission is a bit set of store operations an application may
// perform.
type Permission uint8

// Permission bits.
const (
	// PermGet allows duplicate checking and result retrieval.
	PermGet Permission = 1 << iota
	// PermPut allows uploading fresh results.
	PermPut
)

// PermAll grants every operation.
const PermAll = PermGet | PermPut

// ErrUnauthorized is returned when an operation is denied by the
// store's ACL.
var ErrUnauthorized = errors.New("store: unauthorized")

// ACL holds per-application permission grants and a configurable
// default. It is safe for concurrent use.
type ACL struct {
	mu      sync.RWMutex
	grants  map[enclave.Measurement]Permission
	defPerm Permission
}

// NewACL creates an ACL whose unlisted applications receive def.
// NewACL(store.PermAll) is open; NewACL(0) is deny-by-default.
func NewACL(def Permission) *ACL {
	return &ACL{
		grants:  make(map[enclave.Measurement]Permission),
		defPerm: def,
	}
}

// Grant sets an application's permissions, replacing any previous
// grant.
func (a *ACL) Grant(app enclave.Measurement, perm Permission) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.grants[app] = perm
}

// Revoke removes an application's explicit grant; it falls back to the
// default.
func (a *ACL) Revoke(app enclave.Measurement) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.grants, app)
}

// Authorize reports whether app may perform the operations in perm,
// returning ErrUnauthorized when it may not. A nil ACL allows
// everything.
func (a *ACL) Authorize(app enclave.Measurement, perm Permission) error {
	if a == nil {
		return nil
	}
	a.mu.RLock()
	granted, ok := a.grants[app]
	a.mu.RUnlock()
	if !ok {
		granted = a.defPerm
	}
	if granted&perm != perm {
		return ErrUnauthorized
	}
	return nil
}
