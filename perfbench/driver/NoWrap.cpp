//===- perfbench/driver/NoWrap.cpp - The untraced executable -----------------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

bool perfbench::tracingLinked() { return false; }
