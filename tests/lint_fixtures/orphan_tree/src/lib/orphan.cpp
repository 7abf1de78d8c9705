// fleda-lint-fixture: clean
#include "lib/orphan.hpp"

int orphan() { return 2; }
