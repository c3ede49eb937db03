package collector

import (
	"encoding/gob"
	"fmt"
	"io"

	"vapro/internal/stg"
)

// Recording is a persisted fragment stream: everything the analysis
// side needs to re-run detection and diagnosis later, offline. The
// production workflow this enables — record cheaply during the run,
// analyze after the fact or on another machine — is how the paper's
// tool is used when no server capacity is spared at run time. It is
// written from the graph the run already holds (NewRecording), so
// recording keeps no second copy of the delivered stream.
type Recording struct {
	// Version guards the wire format.
	Version int
	// Ranks is the client count the stream came from.
	Ranks int
	// MakespanNS is the run's virtual duration.
	MakespanNS int64
	// SiteNames maps state keys to human-readable call-sites.
	SiteNames map[uint64]string
	// Batches is the fragment stream. NewRecording writes one batch per
	// STG element with Rank 0; older writers stored delivery batches.
	// Graph reads either the same way.
	Batches []Batch
}

// NewRecording builds the persisted form of g: one batch per element,
// vertices then edges in key order, each element's log in arrival
// order. That is the walk stg.Graph.Merge takes, so Graph replays the
// add sequence that built a merged copy such as Pool.Graph's, and the
// rebuilt graph's elements carry the same logs and generations.
func NewRecording(g *stg.Graph, ranks int, makespanNS int64, siteNames map[uint64]string) *Recording {
	rec := &Recording{Ranks: ranks, MakespanNS: makespanNS, SiteNames: siteNames}
	add := func(el *stg.Element) {
		rec.Batches = append(rec.Batches, Batch{Fragments: el.Log().Slice()})
	}
	for _, v := range g.Vertices() {
		add(&v.Element)
	}
	for _, e := range g.Edges() {
		add(&e.Element)
	}
	return rec
}

// recordingVersion is bumped on incompatible format changes.
const recordingVersion = 1

// WriteRecording serializes rec with gob.
func WriteRecording(w io.Writer, rec *Recording) error {
	cp := *rec
	cp.Version = recordingVersion
	return gob.NewEncoder(w).Encode(&cp)
}

// ReadRecording deserializes a recording and validates its version.
func ReadRecording(r io.Reader) (*Recording, error) {
	var rec Recording
	if err := gob.NewDecoder(r).Decode(&rec); err != nil {
		return nil, fmt.Errorf("collector: corrupt recording: %w", err)
	}
	if rec.Version != recordingVersion {
		return nil, fmt.Errorf("collector: recording version %d, want %d", rec.Version, recordingVersion)
	}
	if rec.Ranks <= 0 {
		return nil, fmt.Errorf("collector: recording without ranks")
	}
	return &rec, nil
}

// Graph rebuilds the STG from the recorded stream.
func (rec *Recording) Graph() *stg.Graph {
	g := stg.New()
	for _, b := range rec.Batches {
		g.AddBatch(b.Fragments)
	}
	for k, n := range rec.SiteNames {
		g.SetName(k, n)
	}
	return g
}
