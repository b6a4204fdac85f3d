// The benchmark's workloads. Each fills `report` with its run record,
// checks, attempted/failed counts and metrics: the end-to-end metrics when
// untraced, the per-layer metrics when options.trace is set.
#pragma once

#include "report.hpp"

namespace perfbench {

/// browse and churn: a simulated fleet ticked by sim::Engine.
void run_sim(const Options& options, Report& report);

/// serve: a net::Daemon replaying recorded request frames.
void run_serve(const Options& options, Report& report);

}  // namespace perfbench
