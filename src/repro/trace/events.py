"""Loop-marker opcodes of the dynamic trace.

A trace row is one executed IR instruction; the loop markers bracket
each dynamic loop instance (enter, next iteration, exit) so windows and
iteration boundaries can be recovered from the opcode column.
"""

from repro.ir.instructions import Opcode

#: Marker kinds re-exported as ints for cheap comparison in scans.
MARKER_ENTER = int(Opcode.LOOP_ENTER)
MARKER_NEXT = int(Opcode.LOOP_NEXT)
MARKER_EXIT = int(Opcode.LOOP_EXIT)
