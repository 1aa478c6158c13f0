package store

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"speed/internal/mle"
	"speed/internal/wire"
)

func TestACLDefaults(t *testing.T) {
	open := NewACL(PermAll)
	if err := open.Authorize(ownerOf("any"), PermGet|PermPut); err != nil {
		t.Errorf("open ACL denied: %v", err)
	}
	closed := NewACL(0)
	if err := closed.Authorize(ownerOf("any"), PermGet); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("closed ACL allowed: %v", err)
	}
}

func TestACLGrantRevoke(t *testing.T) {
	acl := NewACL(0)
	app := ownerOf("app")
	acl.Grant(app, PermGet)
	if err := acl.Authorize(app, PermGet); err != nil {
		t.Errorf("granted get denied: %v", err)
	}
	if err := acl.Authorize(app, PermPut); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("ungranted put allowed: %v", err)
	}
	if err := acl.Authorize(app, PermGet|PermPut); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("partial grant satisfied combined permission: %v", err)
	}
	acl.Grant(app, PermAll)
	if err := acl.Authorize(app, PermGet|PermPut); err != nil {
		t.Errorf("full grant denied: %v", err)
	}
	acl.Revoke(app)
	if err := acl.Authorize(app, PermGet); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("revoked app allowed: %v", err)
	}
}

func TestStoreAuthorizationGet(t *testing.T) {
	acl := NewACL(0)
	reader := ownerOf("reader")
	writer := ownerOf("writer")
	acl.Grant(reader, PermGet)
	acl.Grant(writer, PermAll)
	s := testStore(t, Config{Auth: acl})

	tag := tagOf("t")
	if _, err := s.Put(writer, tag, sealedOf("blob")); err != nil {
		t.Fatalf("writer Put: %v", err)
	}
	if _, found, err := s.GetAs(reader, tag); err != nil || !found {
		t.Errorf("reader GetAs = (%v, %v), want found", found, err)
	}
	// Reader may not put.
	if _, err := s.Put(reader, tagOf("t2"), sealedOf("x")); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("reader Put = %v, want ErrUnauthorized", err)
	}
	// Unknown app may do nothing.
	if _, _, err := s.GetAs(ownerOf("stranger"), tag); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("stranger GetAs = %v, want ErrUnauthorized", err)
	}
	if got := s.Stats().Unauthorized; got != 2 {
		t.Errorf("Unauthorized = %d, want 2", got)
	}
}

// TestStoreDeniesWholeMessage pins the shape of a denial, which the
// store decides once per message: a 64-tag GET from an application
// without PermGet answers 64 misses, even for the
// tags that are stored, and a 64-item PUT from one without PermPut
// answers 64 ErrUnauthorized rejections and stores nothing. Each
// message counts 64 denials.
func TestStoreDeniesWholeMessage(t *testing.T) {
	acl := NewACL(0)
	writer, reader, stranger := ownerOf("writer"), ownerOf("reader"), ownerOf("stranger")
	acl.Grant(writer, PermAll)
	acl.Grant(reader, PermGet)
	s := testStore(t, Config{Auth: acl})

	tags := make([]mle.Tag, 64)
	items := make([]wire.PutItem, len(tags))
	for i := range tags {
		tags[i] = tagOf(fmt.Sprintf("t%d", i))
		items[i] = wire.PutItem{Tag: tags[i], Sealed: sealedOf("blob")}
	}
	if _, err := s.WirePut(writer, items[:32]); err != nil {
		t.Fatalf("writer PUT: %v", err)
	}
	var want int64
	denied := func(what string) {
		t.Helper()
		if want += 64; s.Stats().Unauthorized != want {
			t.Errorf("after %s: Unauthorized = %d, want %d", what, s.Stats().Unauthorized, want)
		}
	}

	got, err := s.WireGet(stranger, tags, math.MaxInt)
	if err != nil || len(got) != len(tags) {
		t.Fatalf("stranger GET = %d answers, %v; want %d", len(got), err, len(tags))
	}
	for i, r := range got {
		if r.Found || r.Sealed.Size() != 0 {
			t.Errorf("stranger GET answer %d = %+v, want a miss", i, r)
		}
	}
	denied("GET")

	prs, err := s.WirePut(reader, items)
	if err != nil || len(prs) != len(items) {
		t.Fatalf("reader PUT = %d answers, %v; want %d", len(prs), err, len(items))
	}
	for i, pr := range prs {
		if pr.OK || pr.Err != ErrUnauthorized.Error() {
			t.Errorf("reader PUT answer %d = %+v, want %q", i, pr, ErrUnauthorized)
		}
	}
	denied("PUT")
	if n := s.Len(); n != 32 {
		t.Errorf("store holds %d entries after the denied PUT, want 32", n)
	}
}

func TestStoreNoAuthorizerIsOpen(t *testing.T) {
	s := testStore(t, Config{})
	if _, err := s.Put(ownerOf("anyone"), tagOf("t"), sealedOf("b")); err != nil {
		t.Errorf("Put without authorizer: %v", err)
	}
	if _, _, err := s.GetAs(ownerOf("anyone"), tagOf("t")); err != nil {
		t.Errorf("GetAs without authorizer: %v", err)
	}
}

func TestObliviousLookup(t *testing.T) {
	s := testStore(t, Config{Oblivious: true})
	owner := ownerOf("app")
	for i := 0; i < 20; i++ {
		if _, err := s.Put(owner, tagOf(string(rune('a'+i))), sealedOf("blob")); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	got, found, err := s.Get(tagOf("c"))
	if err != nil || !found {
		t.Fatalf("Get = (%v, %v), want found", found, err)
	}
	if string(got.Blob) != "blob" {
		t.Errorf("Get blob = %q", got.Blob)
	}
	if _, found, err := s.Get(tagOf("nonexistent")); err != nil || found {
		t.Errorf("oblivious miss = (%v, %v), want not found", found, err)
	}
}

func TestObliviousModeSkipsLRUUpdate(t *testing.T) {
	// In oblivious mode, Gets must not reorder the LRU: with
	// MaxEntries=2, touching the older entry does not save it.
	s := testStore(t, Config{Oblivious: true, MaxEntries: 2})
	owner := ownerOf("app")
	if _, err := s.Put(owner, tagOf("a"), sealedOf("A")); err != nil {
		t.Fatalf("Put a: %v", err)
	}
	if _, err := s.Put(owner, tagOf("b"), sealedOf("B")); err != nil {
		t.Fatalf("Put b: %v", err)
	}
	if _, found, _ := s.Get(tagOf("a")); !found {
		t.Fatal("a missing")
	}
	if _, err := s.Put(owner, tagOf("c"), sealedOf("C")); err != nil {
		t.Fatalf("Put c: %v", err)
	}
	// Insertion order eviction: "a" goes despite being touched.
	if _, found, _ := s.Get(tagOf("a")); found {
		t.Error("oblivious Get still refreshed LRU position")
	}
	if _, found, _ := s.Get(tagOf("b")); !found {
		t.Error("b wrongly evicted")
	}
}
