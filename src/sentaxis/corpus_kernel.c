/* The lines of a format-A corpus file (corpus.py), each mapped to the id of
 * its distinct text, numbered in first-seen order:
 *   - a line ends at '\n' or at the end of the text; a last line that is
 *     empty is no line, as str.splitlines counts them;
 *   - the distinct texts are kept as byte spans of the text in an open-
 *     addressing table of FNV-1a hashes (linear probing, at most half full),
 *     so memory grows with the distinct lines, not with the lines;
 *   - the text is declined if a line holds a line break str.splitlines ends
 *     a line at other than '\n': '\v', '\f', '\r', 0x1c-0x1e, or the UTF-8
 *     of U+0085, U+2028 or U+2029. No byte of these sequences can end
 *     another UTF-8 sequence or continue one, so wherever they occur they
 *     decode as those breaks, and nothing else does. A repeated line equals
 *     a checked one, so only a new distinct line is checked.
 * The bytes need not be UTF-8: Python decodes each distinct span. */
#include <stdint.h>
#include <string.h>

#define FNV_OFFSET UINT64_C(14695981039346656037)
#define FNV_PRIME UINT64_C(1099511628211)
#define HIGH UINT64_C(0xffffffff00000000)

static uint64_t hash_bytes(const unsigned char *p, int64_t n)
{
    uint64_t h = FNV_OFFSET;
    for (int64_t i = 0; i < n; i++)
        h = (h ^ p[i]) * FNV_PRIME;
    return h;
}

/* 1 if p[0:n) holds a line break other than '\n' (see the top). */
static int other_break(const unsigned char *p, int64_t n)
{
    for (int64_t i = 0; i < n; i++) {
        unsigned char c = p[i];
        if ((c >= 0x0b && c <= 0x0d) || (c >= 0x1c && c <= 0x1e))
            return 1;
        if (c == 0xc2 && i + 1 < n && p[i + 1] == 0x85)
            return 1;
        if (c == 0xe2 && i + 2 < n && p[i + 1] == 0x80 && (p[i + 2] == 0xa8 || p[i + 2] == 0xa9))
            return 1;
    }
    return 0;
}

/* A table slot is 0 when empty, else the high half of the text's hash and
 * its id + 1 in the low half. */
static uint64_t slot_of(uint64_t h, int64_t id) { return (h & HIGH) | (uint64_t)(id + 1); }

/* Gives each line of text[0:size) from state[0] on its id in ids, from
 * ids[state[1]] on. spans holds (start, end) of each distinct text found so
 * far, state[2] of them, with room for room; table has slots (a power of
 * two, more than room) zeroed slots, into which they are hashed first, so
 * the caller may resume with larger arrays. state is left at the first line
 * not taken. Returns 0 once every line has an id, 1 if a new text finds no
 * room (that line not taken), -1 if the text is declined. */
int corpus_intern(const char *text, int64_t size, int32_t *ids, int64_t *spans, int64_t room,
                  uint64_t *table, int64_t slots, int64_t *state)
{
    const unsigned char *base = (const unsigned char *)text, *end = base + size;
    const uint64_t mask = (uint64_t)slots - 1;
    int64_t pos = state[0], lines = state[1], distinct = state[2];
    for (int64_t k = 0; k < distinct; k++) {
        uint64_t h = hash_bytes(base + spans[2 * k], spans[2 * k + 1] - spans[2 * k]);
        uint64_t i = h & mask;
        while (table[i])
            i = (i + 1) & mask;
        table[i] = slot_of(h, k);
    }
    int status = 0;
    while (pos < size) {
        const unsigned char *line = base + pos, *p = line;
        uint64_t h = FNV_OFFSET;
        for (; p < end && *p != '\n'; p++)
            h = (h ^ *p) * FNV_PRIME;
        int64_t n = p - line, k = -1;
        uint64_t i = h & mask;
        for (; table[i]; i = (i + 1) & mask) {
            if ((table[i] ^ h) & HIGH)
                continue;
            int64_t id = (int64_t)(table[i] & ~HIGH) - 1;
            if (spans[2 * id + 1] - spans[2 * id] == n && !memcmp(base + spans[2 * id], line, n)) {
                k = id;
                break;
            }
        }
        if (k < 0) {
            if (other_break(line, n)) {
                status = -1;
                break;
            }
            if (distinct == room) {
                status = 1;
                break;
            }
            k = distinct++;
            spans[2 * k] = pos;
            spans[2 * k + 1] = pos + n;
            table[i] = slot_of(h, k);
        }
        ids[lines++] = (int32_t)k;
        pos += n + 1;
    }
    state[0] = pos;
    state[1] = lines;
    state[2] = distinct;
    return status;
}
