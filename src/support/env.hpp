// Boolean GRAPHENE_* environment switches.
#pragma once

#include <cstdlib>

namespace graphene::support {

/// True when the environment variable `name` is set to anything but the
/// empty string or a value starting with '0': unset, "" and "0" all mean off.
inline bool envFlag(const char* name) {
  const char* e = std::getenv(name);
  return e != nullptr && e[0] != '\0' && e[0] != '0';
}

}  // namespace graphene::support
