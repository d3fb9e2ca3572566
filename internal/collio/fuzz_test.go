package collio

import (
	"slices"
	"testing"

	"mcio/internal/pfs"
)

// FuzzExtentIndexOverlapBytes cross-checks the sparse merge-walk
// (RequestOverlapAppend) against the naive per-bucket intersection for
// arbitrary bucket shapes and arbitrary (possibly unnormalized) queries,
// and checks that appending after a dirty prefix leaves the prefix and
// appends the same overlaps. The dense mode decodes coll_perf's shape
// instead: long bucket extents, adjacent or apart, and a query of many
// short ascending extents, so runs of them fall inside bucket extents,
// straddle their ends and start in the gaps between buckets.
func FuzzExtentIndexOverlapBytes(f *testing.F) {
	// Seed corpus: a plain interleave, an adjacency-heavy layout, a
	// single-bucket index with an empty/overlapping query, and an empty
	// query against many buckets; then dense runs of one, two and many
	// extents, against adjacent buckets and buckets with gaps.
	f.Add(false, []byte{3, 10, 5, 8, 2, 12, 9, 4}, []byte{1, 20, 6, 0, 40, 9})
	f.Add(false, []byte{0, 1, 0, 1, 0, 1, 0, 1}, []byte{0, 2, 1, 2, 2, 2})
	f.Add(false, []byte{7, 30}, []byte{5, 0, 3, 15, 3, 15})
	f.Add(false, []byte{1, 5, 1, 5, 1, 5, 1, 5, 1, 5, 1, 5}, []byte{})
	f.Add(true, []byte{0, 3, 0, 0, 2, 1, 0, 0}, []byte{1, 3, 1, 3, 1, 3, 1, 3, 1, 3, 1, 3, 1, 3, 1, 3, 1, 3, 1, 3, 1, 3, 1, 3})
	f.Add(true, []byte{1, 0, 2, 0, 3, 1, 1, 0}, []byte{0, 7, 9, 2, 0, 5, 15, 7, 1, 1, 1, 1, 2, 6, 0, 1})
	f.Add(true, []byte{5, 9, 5, 9, 5, 9}, []byte{4, 1, 4, 1, 3, 2, 7, 7, 1, 3, 14, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2})
	f.Fuzz(func(t *testing.T, dense bool, bucketData, queryData []byte) {
		// Decode disjoint ascending buckets: byte pairs are (gap, length),
		// two extents per bucket. Gaps of at least one keep buckets and
		// extents strictly disjoint, as NewExtentIndex requires; dense
		// buckets may touch, and their extents are 8 to 2048 bytes long.
		var buckets [][]pfs.Extent
		var exts []pfs.Extent
		var cur int64
		for i := 0; i+2 <= len(bucketData); i += 2 {
			gap, length := int64(bucketData[i])+1, int64(bucketData[i+1])%40+1
			if dense {
				gap, length = int64(bucketData[i]%4), (int64(bucketData[i+1])+1)*8
			}
			cur += gap
			exts = append(exts, pfs.Extent{Offset: cur, Length: length})
			cur += length
			if len(exts) == 2 {
				buckets = append(buckets, exts)
				exts = nil
			}
		}
		if len(exts) > 0 {
			buckets = append(buckets, exts)
		}
		// Decode the query: byte pairs are (offset, length) with no
		// constraints — empty, overlapping and unsorted extents exercise
		// the normalizing slow path. Dense pairs are (gap, length): each
		// extent starts up to 15 bytes past the previous one's end and
		// is up to 7 bytes long.
		var query []pfs.Extent
		span := cur + 1
		var off int64
		for i := 0; i+2 <= len(queryData); i += 2 {
			if dense {
				off += int64(queryData[i] % 16)
				length := int64(queryData[i+1] % 8)
				query = append(query, pfs.Extent{Offset: off, Length: length})
				off += length
				continue
			}
			query = append(query, pfs.Extent{
				Offset: int64(queryData[i]) % span,
				Length: int64(queryData[i+1]) % 50,
			})
		}

		idx := NewExtentIndex(buckets)
		got := overlapRow(t, idx, len(buckets), query)
		for b := range buckets {
			want := pfs.TotalBytes(pfs.Intersect(query, buckets[b]))
			if got[b] != want {
				t.Fatalf("bucket %d: got %d, naive %d", b, got[b], want)
			}
		}
		// Appending after a dirty prefix keeps it and adds the same overlaps.
		rs := NewRequestSet([]RankRequest{{Rank: 0, Extents: query}})
		fresh := idx.RequestOverlapAppend(nil, rs, 0)
		prefix := []BucketBytes{{Bucket: -1, Bytes: -1}}
		again := idx.RequestOverlapAppend(prefix, rs, 0)
		if again[0] != prefix[0] || !slices.Equal(again[1:], fresh) {
			t.Fatalf("append after a prefix = %v, fresh %v", again, fresh)
		}
	})
}
