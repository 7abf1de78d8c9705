// fleda-lint-fixture: expect orphan-header
// Included only by its own .cpp, by a test, and by a commented-out line
// in bench/driver.cpp: nothing runs it.
#pragma once

int orphan();
