package dedup

import (
	"net"
	"testing"
	"time"

	"speed/internal/enclave"
	"speed/internal/store"
)

// TestPingDoesNotPolluteStats is the point of Ping over a sentinel GET:
// a health probe must not fabricate dictionary traffic.
func TestPingDoesNotPolluteStats(t *testing.T) {
	t.Run("v2 mux", func(t *testing.T) {
		env := newRemoteEnv(t)
		for i := 0; i < 3; i++ {
			if err := env.client.Ping(); err != nil {
				t.Fatalf("Ping #%d: %v", i, err)
			}
		}
		s := env.store.Stats()
		if s.Gets != 0 || s.Puts != 0 {
			t.Errorf("pings polluted stats: gets=%d puts=%d, want 0/0", s.Gets, s.Puts)
		}
	})
}

func TestPingFailsWhenStoreDown(t *testing.T) {
	p := enclave.NewPlatform(enclave.Config{})
	appEnc, _ := p.Create("app", []byte("app code"))
	storeEnc, _ := p.Create("store", []byte("store code"))
	// Grab a port that refuses connections: listen, note the address,
	// close again.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	client, err := DialConfig(addr, appEnc, storeEnc.Measurement(), RemoteConfig{
		Lazy:        true,
		DialTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("DialConfig: %v", err)
	}
	defer client.Close()
	if err := client.Ping(); err == nil {
		t.Fatal("Ping succeeded against a dead address")
	}
	if client.Healthy() {
		t.Error("a failed Ping left the client healthy")
	}
}

func TestLocalClientHealthy(t *testing.T) {
	p := enclave.NewPlatform(enclave.Config{})
	storeEnc, _ := p.Create("store", []byte("store code"))
	st, err := store.New(store.Config{Enclave: storeEnc})
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	client := NewLocalClient(st, enclave.Measurement{})
	if !client.Healthy() {
		t.Fatal("Healthy = false on an open store")
	}
	st.Close()
	if client.Healthy() {
		t.Error("Healthy = true on a closed store")
	}
}
