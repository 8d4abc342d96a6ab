// Package core assembles the paper's three steps into the
// learn-to-route (L2R) system: trajectory-based region-graph
// construction (Section IV), preference learning and transfer
// (Section V), and unified routing for arbitrary (source, destination)
// pairs (Section VI). The exported l2r package at the repository root
// is a thin facade over this package; ARCHITECTURE.md at the
// repository root maps the whole pipeline.
//
// # Build and query
//
// Build runs the offline pipeline — map matching (internal/mapmatch),
// clustering (internal/cluster), region-graph construction
// (internal/region), preference learning (internal/pref), transfer
// (internal/transfer), B-edge path materialization — and returns a
// Router. Router.Route classifies a query by endpoint region
// membership (Category) and answers with the paper's Case 1/2/3
// procedure, reporting the evidence behind the answer (stored
// trajectory, learned preference, transferred preference, fastest-path
// fallback). The shortest-path primitive underneath is pluggable: see
// Options.PathBackend and internal/route.PathEngine. Build constructs
// the router's engine before learning, and every learning phase —
// Build, Retransduce, Ingest, EnableMultiPreferences — searches on it
// (on a CCH, through a route.CHEngine Detached fork, so the candidate
// metrics learning scores stay off the serving metric table).
//
// # Concurrency and cloning
//
// A single Router serves one goroutine. Clone forks only the path
// engine's query state (cheap, lazily allocated) for concurrent reads
// over the shared built state; DeepClone also deep-copies the mutable
// built state (region graph, preference maps) and is the
// copy-on-write primitive behind live ingestion: DeepClone → Ingest →
// atomically publish (internal/serve does exactly this). The road
// network, spatial index and any CH hierarchy are immutable after
// build and always shared.
//
// # Persistence
//
// Save/Load round-trip a built router as a checksummed artifact
// (internal/codec) so the minutes-to-hours offline build is paid once
// per deployment. Artifacts carry ArtifactMeta — a name, a
// build-options summary (BuildInfo) and a save generation that
// advances on every Save — which the multi-tenant serving layer
// (internal/serve.Fleet) uses to identify and hot-reload tenants.
package core
