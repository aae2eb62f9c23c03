package profile

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
	"time"

	"github.com/activexml/axml/internal/service"
)

// FuzzProfileUnmarshal feeds the profiles.json decoder arbitrary bytes, as
// read from disk, and the same bytes as the payload of an envelope whose
// checksum matches, so the payload decoder is reached too. Whatever the
// input: Unmarshal never panics; an input it rejects leaves the profiler's
// Marshal output as it was; and once an input is loaded into a fresh
// profiler, Marshal, Unmarshal into another fresh one and Marshal again
// gives the same bytes.
func FuzzProfileUnmarshal(f *testing.F) {
	p := New(0, nil)
	p.Observe("cities", 3*time.Millisecond, 120, 4, true, true, "")
	p.Observe("cities", 40*time.Millisecond, 80, 2, false, false, "transient")
	p.Observe("flaky", time.Millisecond, 0, 0, false, false, "timeout")
	p.ObserveCache("cities", service.CacheHit)
	good, err := p.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	flipped := bytes.Replace(good, []byte(`"cities"`), []byte(`"citxes"`), 1) // the checksum no longer matches
	f.Add(flipped)
	f.Add(good[:len(good)/2]) // torn
	for _, s := range []string{"", "{", "null", "[]", `{"sha256":"","payload":null}`, `[{"service":"s","hist":{"Buckets":[1,2]}}]`} {
		f.Add([]byte(s))
	}

	// The profiler every input is loaded onto: it holds state already, as a
	// server's does before it reads the file.
	base := func() *Profiler {
		q := New(0, nil)
		q.Observe("flaky", 2*time.Millisecond, 1, 1, false, false, "transient")
		return q
	}
	check := func(t *testing.T, data []byte) {
		q := base()
		before, err := q.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if err := q.Unmarshal(data); err != nil {
			after, err := q.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatalf("a rejected input changed the profiler:\nbefore %s\nafter  %s", before, after)
			}
			return
		}
		once := New(0, nil)
		if err := once.Unmarshal(data); err != nil {
			t.Fatalf("accepted onto a profiler with state, rejected by a fresh one: %v", err)
		}
		m1, err := once.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		twice := New(0, nil)
		if err := twice.Unmarshal(m1); err != nil {
			t.Fatalf("Marshal's own output rejected: %v\n%s", err, m1)
		}
		m2, err := twice.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(m1, m2) {
			t.Fatalf("Marshal → Unmarshal → Marshal is no fixed point:\n%s\n%s", m1, m2)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check(t, data)
		var payload bytes.Buffer
		if json.Compact(&payload, data) != nil {
			return
		}
		sum := sha256.Sum256(payload.Bytes())
		stamped, err := json.Marshal(envelope{SHA256: hex.EncodeToString(sum[:]), Payload: payload.Bytes()})
		if err != nil {
			t.Fatal(err)
		}
		check(t, stamped)
	})
}
