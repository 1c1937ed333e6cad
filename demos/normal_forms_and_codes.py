"""How terms become integer codes and canonical normal forms.

Run:  python3 demos/normal_forms_and_codes.py
"""

from ocbsl import Arena, Session, parse, print_term, to_internal

arena = Arena()
session = Session(arena)


def show(text):
    code = session.normalize(to_internal(parse(text), arena))
    normal = print_term(arena, session.extract_normal_form(code))
    print(f"  {text:28s} ->  code {code:<4d} normal form  {normal}")


print("Every class of equal terms gets one integer code within a session.")
print("Codes pair up: the complement of code c is c ^ 1, and the constants")
print("own the reserved pair 0/1.  A variable's code is 4(r+1), r being its")
print("leaf's ref, and join class j's is 4j+2, so a code's low bits give its kind.")
show("0")
show("1")
show("a")
show("!a")
show("b | a")
show("a | b")
show("!(a | b)")
show("a & b")

print()
print("Equal codes mean equal terms; the extracted normal form is the same")
print("for every member of the class:")
show("a | (b | a)")
show("!!b | a | 0")

print()
print("Join classes remember their member codes (sorted), which is also how")
print("a negated subterm is spotted inside a bigger join:")
code = session.normalize(to_internal(parse("a | b"), arena))
print(f"  members of code {code}: {session.join_class_members(code)}")
show("c | a | b | !(a | b)")

print()
print("Session statistics count rule applications:")
for name, value in vars(session.stats).items():
    if value:
        print(f"  {name:18s} {value}")
