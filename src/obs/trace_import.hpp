// Chrome trace re-import: parses the trace_event JSON the Tracer exports
// back into TrackSnapshots, so the same critical-path forensics that run
// in-process (obs/critical_path.hpp) can run offline over a saved trace —
// tools/tiledqr_analyze is the CLI wrapper.
//
// Only what the exporter writes is understood: "X" complete slices carrying
// the tiledqr args (task/sub/i/piv/k/j/stolen) and "thread_name" metadata.
// Slices without the args (foreign traces) import with defaults and simply
// won't join against a task graph; other args, such as the "component" that
// older exports carry, are ignored. Timestamps are converted back
// from microseconds to nanoseconds; the export's rebasing to the earliest
// event is irrelevant to the analysis (only differences matter).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace tiledqr::obs {

/// Parses a Chrome trace_event JSON document into per-thread snapshots
/// (one TrackSnapshot per tid, events in file order). Throws tiledqr::Error
/// on malformed JSON, a document without a traceEvents array, or a numeric
/// field out of the range of its TraceEvent member.
[[nodiscard]] std::vector<TrackSnapshot> import_chrome_json(std::istream& in);
[[nodiscard]] std::vector<TrackSnapshot> import_chrome_json(const std::string& path);

}  // namespace tiledqr::obs
