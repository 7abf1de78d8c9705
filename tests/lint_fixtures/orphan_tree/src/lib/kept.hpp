// fleda-lint-fixture: clean
// An orphan kept on purpose, with the file-level escape:
// fleda-lint: allow(orphan-header)
#pragma once

int kept();
