// fleda-lint-fixture: clean
#include "lib/used.hpp"
/* Disabled, so it does not count:
#include "lib/orphan.hpp"
*/

int main() { return used(); }
