// fleda-lint-fixture: clean
// Includes its own header, and local.hpp by a path relative to this
// directory.
#include "lib/used.hpp"

#include "local.hpp"

int used() { return local(); }
