package wire

import (
	"encoding/binary"
	"fmt"

	"speed/internal/mle"
)

// Sync messages implement the master-store synchronization of Section
// IV-B over the wire: "periodically synchronizes the popular (i.e.,
// frequently appeared) results from different machines". A SYNC_PULL
// asks a store for its hot entries — tags hit at least MinHits times —
// and the response carries everything needed to install each result at
// another store (the tag and the sealed (r, [k], [res]) triple; hit
// counts ride along so the puller can rank entries). The dictionary
// metadata never leaves the attested channel in the clear, exactly as
// for GET/PUT.

// SyncPullRequest asks the store for entries with at least MinHits
// hits. Max bounds the response; zero (or anything above MaxBatchItems)
// means MaxBatchItems.
type SyncPullRequest struct {
	MinHits int64
	Max     uint32
}

// SyncEntry is one hot result in a SyncPullResponse.
type SyncEntry struct {
	Tag    mle.Tag
	Hits   int64
	Sealed mle.Sealed
}

// SyncPullResponse answers a SyncPullRequest with the store's hottest
// qualifying entries, most frequently hit first.
type SyncPullResponse struct {
	Entries []SyncEntry
}

// Kind implements Message.
func (SyncPullRequest) Kind() Kind { return KindSyncPullRequest }

// Kind implements Message.
func (SyncPullResponse) Kind() Kind { return KindSyncPullResponse }

func (m SyncPullRequest) appendTo(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(m.MinHits))
	return binary.BigEndian.AppendUint32(buf, m.Max)
}

func decodeSyncPullRequest(b []byte) (SyncPullRequest, error) {
	var m SyncPullRequest
	if len(b) != 12 {
		return m, fmt.Errorf("%w: SYNC_PULL_REQUEST length %d", ErrMalformed, len(b))
	}
	m.MinHits = int64(binary.BigEndian.Uint64(b))
	m.Max = binary.BigEndian.Uint32(b[8:])
	return m, nil
}

func (m SyncPullResponse) appendTo(buf []byte) []byte {
	for i := range m.Entries {
		e := &m.Entries[i]
		buf = append(buf, e.Tag[:]...)
		buf = binary.BigEndian.AppendUint64(buf, uint64(e.Hits))
		buf = appendSealed(buf, e.Sealed)
	}
	return buf
}

func decodeSyncPullResponse(b []byte) (SyncPullResponse, error) {
	var m SyncPullResponse
	for len(b) > 0 {
		if len(m.Entries) == MaxBatchItems {
			return SyncPullResponse{}, tooMany(KindSyncPullResponse)
		}
		if len(b) < mle.TagSize+8 {
			return SyncPullResponse{}, fmt.Errorf("%w: short SYNC_PULL_RESPONSE entry", ErrMalformed)
		}
		var e SyncEntry
		copy(e.Tag[:], b)
		e.Hits = int64(binary.BigEndian.Uint64(b[mle.TagSize:]))
		var err error
		if e.Sealed, b, err = readSealed(b[mle.TagSize+8:]); err != nil {
			return SyncPullResponse{}, err
		}
		m.Entries = append(m.Entries, e)
	}
	return m, nil
}
