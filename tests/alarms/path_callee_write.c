/* `set` overwrites g with 0, so the guard g < 10 always holds and
 * main(0) divides by zero. The guard reads the value the call leaves,
 * not the `g = 30` before it: the path layer must not discharge. */
int g;
int h;
int set(int c) {
    g = 0;
    return 0;
}
int main(int c) {
    g = 30;
    set(c);
    if (g < 10) {
        h = 5 / c;
    }
    return 0;
}
