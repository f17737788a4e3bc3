/* `f` nulls p, so the store right after the call traps on every run.
 * The store reads what the call leaves in p, not the `&g` before it. */
int g;
int *p;
int f() {
    p = 0;
    return 0;
}
int main() {
    p = &g;
    f();
    *p = 1;
    return 0;
}
