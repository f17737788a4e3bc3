/* `set` overwrites g with 0 before the division reads it, so every run
 * divides by zero. The octagon must not see the older `g = 30` past the
 * call: the call defines g's packs without a binding there, so the walk
 * back from the division stops at it with no answer. */
int g;
int h;
int set(int c) {
    g = 0;
    return 0;
}
int main(int c) {
    g = 30;
    set(c);
    h = 100 / g;
    return 0;
}
