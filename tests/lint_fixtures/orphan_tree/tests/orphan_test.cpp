// fleda-lint-fixture: clean
// Tests do not count as callers.
#include "lib/orphan.hpp"

int main() { return orphan() == 2 ? 0 : 1; }
