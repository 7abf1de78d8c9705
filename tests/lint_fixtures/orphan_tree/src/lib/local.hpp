// fleda-lint-fixture: clean
// Reached only through a same-directory include from used.cpp.
#pragma once

inline int local() { return 1; }
