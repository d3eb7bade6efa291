// Umbrella header for the sweep engine: declarative SweepSpec grids, the
// parallel SweepRunner with its fingerprint-keyed ResultCache,
// machine-readable exporters, the shared CLI flags, and the reflected
// --config/--set/--dump-config plumbing. See DESIGN.md "Sweep engine" and
// "Config reflection".
#pragma once

#include "sweep/cli.hpp"          // IWYU pragma: export
#include "sweep/cli_config.hpp"   // IWYU pragma: export
#include "sweep/export.hpp"       // IWYU pragma: export
#include "sweep/parallel.hpp"     // IWYU pragma: export
#include "sweep/result_cache.hpp" // IWYU pragma: export
#include "sweep/runner.hpp"       // IWYU pragma: export
#include "sweep/spec.hpp"         // IWYU pragma: export
