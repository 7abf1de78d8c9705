// fleda-lint-fixture: clean
// Included by bench/driver.cpp: a header with a caller.
#pragma once

int used();
