package cluster

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"

	"cagmres/internal/server"
)

// ShardKey is the routing key of a solve request: the server's own
// matrix key, so requests for the same matrix land on the same backend.
func ShardKey(spec server.MatrixSpec) (string, error) { return spec.Key() }

// ShardMap is the optional routing override config the router loads at
// startup (-shard-map): explicit key pinning plus per-backend rendezvous
// weights. The zero value routes purely by rendezvous hashing.
type ShardMap struct {
	// Assign pins shard keys (the ShardKey form, e.g. "gen:lap2d@0.01")
	// to a backend name: that backend becomes the first candidate, the
	// rendezvous order supplies the failover tail.
	Assign map[string]string `json:"assign,omitempty"`
	// Weights biases the rendezvous scores (weighted rendezvous
	// hashing); absent backends weigh 1. Weights must be positive and
	// finite.
	Weights map[string]float64 `json:"weights,omitempty"`
}

// DecodeShardMap parses a shard-map config. Like the profile spec
// decoder it refuses unknown fields, trailing data, and physically
// meaningless values — hostile input errors, never panics. Empty input
// yields the zero map (pure rendezvous routing).
func DecodeShardMap(data []byte) (*ShardMap, error) {
	if len(strings.TrimSpace(string(data))) == 0 {
		return &ShardMap{}, nil
	}
	var m ShardMap
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("cluster: bad shard map: %w", err)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err == nil {
		return nil, fmt.Errorf("cluster: trailing data after shard map")
	}
	for key, name := range m.Assign {
		if strings.TrimSpace(key) == "" || strings.TrimSpace(name) == "" {
			return nil, fmt.Errorf("cluster: shard map assignment %q -> %q has an empty side", key, name)
		}
	}
	for name, w := range m.Weights {
		if strings.TrimSpace(name) == "" {
			return nil, fmt.Errorf("cluster: shard map weight with empty backend name")
		}
		if !(w > 0) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("cluster: shard map weight for %q must be positive and finite, got %g", name, w)
		}
	}
	return &m, nil
}

// weight returns the rendezvous weight of a backend (1 when unset).
func (m *ShardMap) weight(name string) float64 {
	if m == nil || m.Weights == nil {
		return 1
	}
	if w, ok := m.Weights[name]; ok {
		return w
	}
	return 1
}

// assigned returns the pinned backend name for a key, if any.
func (m *ShardMap) assigned(key string) (string, bool) {
	if m == nil || m.Assign == nil {
		return "", false
	}
	name, ok := m.Assign[key]
	return name, ok
}

// rank orders the backends for a shard key by weighted rendezvous
// hashing (highest random weight first): every router instance computes
// the same order from the same membership, no coordination needed, and
// removing one backend only moves that backend's keys. A shard-map
// assignment, when present and alive in the membership, jumps to the
// front; the rendezvous order supplies the failover tail.
func rank(backends []*Backend, key string, m *ShardMap) []*Backend {
	type scored struct {
		b     *Backend
		score float64
	}
	out := make([]scored, 0, len(backends))
	for _, b := range backends {
		h := fnv.New64a()
		_, _ = h.Write([]byte(b.name))
		_, _ = h.Write([]byte{0})
		_, _ = h.Write([]byte(key))
		// Map the hash to (0,1), then to a weighted score: -w/ln(u) is
		// the standard weighted-rendezvous transform (monotone in u, so
		// w=1 degenerates to plain highest-hash-wins ordering).
		u := (float64(h.Sum64()) + 1) / (math.MaxUint64 + 2)
		out = append(out, scored{b: b, score: -m.weight(b.name) / math.Log(u)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].score != out[j].score {
			return out[i].score > out[j].score
		}
		return out[i].b.name < out[j].b.name
	})
	ranked := make([]*Backend, len(out))
	for i, s := range out {
		ranked[i] = s.b
	}
	if name, ok := m.assigned(key); ok {
		for i, b := range ranked {
			if b.name == name {
				copy(ranked[1:i+1], ranked[:i])
				ranked[0] = b
				break
			}
		}
	}
	return ranked
}
